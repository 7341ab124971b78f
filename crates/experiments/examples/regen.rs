//! Regenerate every generated scenario file under `scenarios/`:
//!
//! ```text
//! cargo run --release -p lsm-experiments --example regen
//! ```
//!
//! Each file [`lsm_experiments::generated_scenarios`] lists must stay
//! byte-identical to its producer — tests assert it through
//! [`lsm_experiments::check_generated`], so edit the producer, rerun
//! this, and commit both. `scenarios/demo.toml` is written by hand.

fn main() {
    for (file, spec) in lsm_experiments::generated_scenarios() {
        let toml = spec.to_toml().expect("scenario serializes");
        let path = format!("{}/{file}", lsm_experiments::SCENARIOS_DIR);
        std::fs::write(path, &toml).expect("write scenario file");
        eprintln!("wrote scenarios/{file} ({} bytes)", toml.len());
    }
}
