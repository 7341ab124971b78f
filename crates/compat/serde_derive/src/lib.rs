//! Derive macros for the offline `serde` stand-in.
//!
//! Parses the deriving item with raw `proc_macro` tokens (the build
//! environment has no `syn`/`quote`) and emits `impl serde::Serialize` /
//! `impl serde::Deserialize` blocks over the crate's `Value` data model.
//!
//! Supported shapes — exactly what this workspace uses:
//!
//! * structs with named fields → maps keyed by field name,
//! * newtype structs → transparent (the inner value),
//! * tuple structs with n > 1 fields → sequences,
//! * enums with unit / newtype / tuple / struct variants → externally
//!   tagged (`"Variant"` or `{ "Variant": payload }`), like real serde.
//!
//! Deserializing a named-field struct or struct variant is always
//! strict: a map key that names no field is an error that reads
//! ``unknown {Owner} field `{k}` (expected one of: …)``, so a typoed
//! knob fails loudly instead of running with a default.
//!
//! An absent field is an error (``missing field `{f}` ``) unless its
//! type is `Option<T>`, which yields `None`. The one supported
//! attribute, `#[serde(default)]` on a struct with named fields (upstream
//! serde's container attribute), instead takes every absent field from
//! the struct's `Default` impl. Any other `#[serde(..)]` attribute, and
//! `#[serde(default)]` anywhere else, is a compile error. Generic types
//! are rejected with a compile error too.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The shape of the item a derive is attached to.
enum Item {
    NamedStruct {
        name: String,
        fields: Vec<String>,
        /// `#[serde(default)]`: absent fields come from `Default`.
        default: bool,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

/// Derive `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().expect("generated code parses"),
        Err(msg) => compile_error(&msg),
    }
}

/// Derive `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item)
            .parse()
            .expect("generated code parses"),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("literal")
}

// ---------------- parsing ----------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let default = skip_attrs_and_vis(&tokens, &mut i)?;
    let kw = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected `struct` or `enum`".into()),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected item name".into()),
    };
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde stand-in derive does not support generics (on `{name}`)"
        ));
    }
    match (kw.as_str(), tokens.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Ok(Item::NamedStruct {
                name,
                fields: parse_named_fields(g.stream())?,
                default,
            })
        }
        _ if default => Err(MISPLACED_DEFAULT.into()),
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Ok(Item::TupleStruct {
                name,
                arity: count_tuple_fields(g.stream())?,
            })
        }
        ("struct", _) => Err(format!("unit struct `{name}` has nothing to serialize")),
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Ok(Item::Enum {
                name,
                variants: parse_variants(g.stream())?,
            })
        }
        _ => Err(format!("cannot derive serde impls for `{kw} {name}`")),
    }
}

/// Skip leading `#[...]` attributes (including doc comments) and
/// visibility qualifiers. Returns whether one of the attributes was
/// `#[serde(default)]`; any other `serde(..)` attribute is an error.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) -> Result<bool, String> {
    let mut default = false;
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(attr)) = tokens.get(*i + 1) {
                    default |= is_serde_default(attr.stream())?;
                }
                *i += 2; // `#` + bracket group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // `pub(crate)` etc.
                }
            }
            _ => return Ok(default),
        }
    }
}

/// Classify one attribute body (the tokens inside `#[...]`):
/// `serde(default)` is `true`, any other `serde(..)` an error, and
/// everything else (docs, lints, other derives' helpers) `false`.
fn is_serde_default(attr: TokenStream) -> Result<bool, String> {
    let tokens: Vec<TokenTree> = attr.into_iter().collect();
    match tokens.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return Ok(false),
    }
    match &tokens[1..] {
        [TokenTree::Group(g)]
            if g.delimiter() == Delimiter::Parenthesis && g.stream().to_string() == "default" =>
        {
            Ok(true)
        }
        rest => Err(format!(
            "unsupported attribute `#[serde{}]`: the serde stand-in derive supports only `#[serde(default)]`",
            rest.iter().map(|t| t.to_string()).collect::<String>()
        )),
    }
}

const MISPLACED_DEFAULT: &str =
    "`#[serde(default)]` is supported only on a struct with named fields";

/// [`skip_attrs_and_vis`] for a field or variant, where
/// `#[serde(default)]` is not supported.
fn skip_member_attrs(tokens: &[TokenTree], i: &mut usize) -> Result<(), String> {
    if skip_attrs_and_vis(tokens, i)? {
        return Err(MISPLACED_DEFAULT.into());
    }
    Ok(())
}

/// Advance past one type, stopping at a top-level `,` (commas nested in
/// `<...>` don't count; parens/brackets/braces arrive as single groups).
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle: i32 = 0;
    while let Some(t) = tokens.get(*i) {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => return,
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_member_attrs(&tokens, &mut i)?;
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(other) => return Err(format!("expected field name, found `{other}`")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => return Err(format!("expected `:` after field `{name}`")),
        }
        skip_type(&tokens, &mut i);
        i += 1; // past the comma (or end)
        fields.push(name);
    }
    Ok(fields)
}

fn count_tuple_fields(stream: TokenStream) -> Result<usize, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut arity = 0;
    let mut i = 0;
    while i < tokens.len() {
        skip_member_attrs(&tokens, &mut i)?;
        if i >= tokens.len() {
            break;
        }
        skip_type(&tokens, &mut i);
        i += 1; // past the comma (or end)
        arity += 1;
    }
    Ok(arity)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_member_attrs(&tokens, &mut i)?;
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(other) => return Err(format!("expected variant name, found `{other}`")),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantShape::Tuple(count_tuple_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantShape::Named(parse_named_fields(g.stream())?)
            }
            _ => VariantShape::Unit,
        };
        // Skip an optional `= discriminant` and the trailing comma.
        while let Some(t) = tokens.get(i) {
            i += 1;
            if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

// ---------------- codegen ----------------

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields, .. } => {
            let entries: String = fields
                .iter()
                .map(|f| format!("({f:?}.to_string(), ::serde::Serialize::to_value(&self.{f})),"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Map(vec![{entries}])\n\
                     }}\n\
                 }}"
            )
        }
        Item::TupleStruct { name, arity } => {
            let body = if *arity == 1 {
                "::serde::Serialize::to_value(&self.0)".to_string()
            } else {
                let items: String = (0..*arity)
                    .map(|i| format!("::serde::Serialize::to_value(&self.{i}),"))
                    .collect();
                format!("::serde::Value::Seq(vec![{items}])")
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        VariantShape::Unit => format!(
                            "{name}::{vn} => ::serde::Value::Str({vn:?}.to_string()),\n"
                        ),
                        VariantShape::Tuple(1) => format!(
                            "{name}::{vn}(x0) => ::serde::Value::Map(vec![({vn:?}.to_string(), ::serde::Serialize::to_value(x0))]),\n"
                        ),
                        VariantShape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                            let items: String = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b}),"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => ::serde::Value::Map(vec![({vn:?}.to_string(), ::serde::Value::Seq(vec![{items}]))]),\n",
                                binds.join(", ")
                            )
                        }
                        VariantShape::Named(fields) => {
                            let binds = fields.join(", ");
                            let entries: String = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "({f:?}.to_string(), ::serde::Serialize::to_value({f})),"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds} }} => ::serde::Value::Map(vec![({vn:?}.to_string(), ::serde::Value::Map(vec![{entries}]))]),\n"
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{arms}\n}}\n\
                     }}\n\
                 }}"
            )
        }
    }
}

/// Reject map keys that name no field — a typoed knob must be an
/// error, not a silently-defaulted value.
fn unknown_key_check(owner: &str, fields: &[String], map_expr: &str) -> String {
    let alts = fields
        .iter()
        .map(|f| format!("{f:?}"))
        .collect::<Vec<_>>()
        .join(" | ");
    let expected = fields.join(", ");
    format!(
        "if let ::serde::Value::Map(m) = {map_expr} {{\n\
             for (k, _) in m.iter() {{\n\
                 if !matches!(k.as_str(), {alts}) {{\n\
                     return Err(::serde::Error::new(format!(\n\
                         concat!(\"unknown \", {owner:?}, \" field `{{}}` (expected one of: \", {expected:?}, \")\"), k)));\n\
                 }}\n\
             }}\n\
         }}\n"
    )
}

/// `field: <lookup in map `v`>`. With `default` (`#[serde(default)]`)
/// an absent key takes the field of the binding `d` that holds the
/// type's `Default`; otherwise it routes through `Deserialize::absent`,
/// so only `Option` fields may be omitted.
fn named_field_init(owner: &str, fields: &[String], map_expr: &str, default: bool) -> String {
    fields
        .iter()
        .map(|f| {
            let absent = if default {
                format!("d.{f}")
            } else {
                format!("::serde::Deserialize::absent({f:?}).map_err(|e| e.ctx({owner:?}))?")
            };
            format!(
                "{f}: match {map_expr}.get({f:?}) {{\n\
                     Some(x) => ::serde::Deserialize::from_value(x)\n\
                         .map_err(|e| e.ctx(concat!({owner:?}, \".\", {f:?})))?,\n\
                     None => {absent},\n\
                 }},\n"
            )
        })
        .collect()
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::NamedStruct {
            name,
            fields,
            default,
        } => {
            let inits = named_field_init(name, fields, "v", *default);
            let defaults = if *default {
                "let d = <Self as ::core::default::Default>::default();\n"
            } else {
                ""
            };
            let strictness = unknown_key_check(name, fields, "v");
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{\n\
                         if !matches!(v, ::serde::Value::Map(_)) {{\n\
                             return Err(::serde::Error::new(format!(\n\
                                 concat!(\"expected map for \", {name:?}, \", found {{}}\"), v.kind())));\n\
                         }}\n\
                         {strictness}\
                         {defaults}\
                         Ok({name} {{ {inits} }})\n\
                     }}\n\
                 }}"
            )
        }
        Item::TupleStruct { name, arity } => {
            let body = if *arity == 1 {
                format!(
                    "Ok({name}(::serde::Deserialize::from_value(v).map_err(|e| e.ctx({name:?}))?))"
                )
            } else {
                let items: String = (0..*arity)
                    .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?,"))
                    .collect();
                format!(
                    "match v {{\n\
                         ::serde::Value::Seq(items) if items.len() == {arity} => Ok({name}({items})),\n\
                         other => Err(::serde::Error::new(format!(\n\
                             concat!(\"expected {arity}-element sequence for \", {name:?}, \", found {{}}\"), other.kind()))),\n\
                     }}"
                )
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        VariantShape::Unit => {
                            format!("{vn:?} => Ok({name}::{vn}),\n")
                        }
                        VariantShape::Tuple(1) => format!(
                            "{vn:?} => {{\n\
                                 let p = payload.ok_or_else(|| ::serde::Error::new(\n\
                                     concat!(\"variant \", {vn:?}, \" needs a payload\")))?;\n\
                                 Ok({name}::{vn}(::serde::Deserialize::from_value(p)\n\
                                     .map_err(|e| e.ctx(concat!({name:?}, \"::\", {vn:?})))?))\n\
                             }}\n"
                        ),
                        VariantShape::Tuple(n) => {
                            let items: String = (0..*n)
                                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?,"))
                                .collect();
                            format!(
                                "{vn:?} => {{\n\
                                     let p = payload.ok_or_else(|| ::serde::Error::new(\n\
                                         concat!(\"variant \", {vn:?}, \" needs a payload\")))?;\n\
                                     match p {{\n\
                                         ::serde::Value::Seq(items) if items.len() == {n} => Ok({name}::{vn}({items})),\n\
                                         other => Err(::serde::Error::new(format!(\n\
                                             concat!(\"expected {n}-element sequence for \", {name:?}, \"::\", {vn:?}, \", found {{}}\"), other.kind()))),\n\
                                     }}\n\
                                 }}\n"
                            )
                        }
                        VariantShape::Named(fields) => {
                            let inits = named_field_init(vn, fields, "p", false);
                            let strictness = unknown_key_check(vn, fields, "p");
                            format!(
                                "{vn:?} => {{\n\
                                     let p = payload.ok_or_else(|| ::serde::Error::new(\n\
                                         concat!(\"variant \", {vn:?}, \" needs a payload\")))?;\n\
                                     if !matches!(p, ::serde::Value::Map(_)) {{\n\
                                         return Err(::serde::Error::new(format!(\n\
                                             concat!(\"expected map payload for \", {name:?}, \"::\", {vn:?}, \", found {{}}\"), p.kind())));\n\
                                     }}\n\
                                     {strictness}\
                                     Ok({name}::{vn} {{ {inits} }})\n\
                                 }}\n"
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{\n\
                         let (tag, payload): (&str, ::core::option::Option<&::serde::Value>) = match v {{\n\
                             ::serde::Value::Str(s) => (s.as_str(), ::core::option::Option::None),\n\
                             ::serde::Value::Map(m) if m.len() == 1 => (m[0].0.as_str(), ::core::option::Option::Some(&m[0].1)),\n\
                             other => return Err(::serde::Error::new(format!(\n\
                                 concat!(\"expected \", {name:?}, \" variant tag, found {{}}\"), other.kind()))),\n\
                         }};\n\
                         match tag {{\n\
                             {arms}\n\
                             other => Err(::serde::Error::new(format!(\n\
                                 concat!(\"unknown \", {name:?}, \" variant `{{}}`\"), other))),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    }
}
