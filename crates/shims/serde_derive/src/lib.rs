//! Hand-rolled `#[derive(Serialize, Deserialize)]` for the in-tree serde
//! shim.
//!
//! Without registry access there is no `syn`/`quote`, so this macro walks
//! the raw [`proc_macro::TokenStream`] itself. It supports what the
//! workspace actually derives on:
//!
//! * structs with named fields,
//! * tuple structs (arity 1 collapses to the inner value, matching
//!   serde's newtype behaviour and `#[serde(transparent)]`),
//! * enums with unit, newtype, tuple and struct variants (externally
//!   tagged, like real serde's default).
//!
//! `Serialize` builds a `serde::Value` tree; `Deserialize` reads JSON
//! text straight from a `serde::Decoder`, with no tree in between.
//! Struct fields may come in any order, unknown fields are validated and
//! skipped, the first of a repeated key wins, and a missing field
//! decodes as a literal `null` would (`None` for an `Option`).
//!
//! Generics are intentionally unsupported — none of the derived types in
//! this workspace are generic — and hitting one produces a clear
//! compile error rather than silently wrong code.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (shim data model: `fn to_value(&self)`).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

/// Derives `serde::Deserialize` (shim data model: `fn deserialize(&mut
/// Decoder)`).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Item {
    Struct {
        name: String,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    match parse_item(input) {
        Ok(item) => generate(&item, mode)
            .parse()
            .expect("generated code parses"),
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

// ---- parsing ---------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);
    let kind = match ident_at(&tokens, i) {
        Some(k @ ("struct" | "enum")) => k.to_string(),
        _ => return Err("serde shim derive: expected `struct` or `enum`".into()),
    };
    i += 1;
    let name = ident_at(&tokens, i)
        .ok_or("serde shim derive: missing item name")?
        .to_string();
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive: generic type `{name}` is not supported"
        ));
    }
    if kind == "struct" {
        let shape = match tokens.get(i) {
            None => Shape::Unit,
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(parse_tuple_arity(g.stream()))
            }
            other => return Err(format!("serde shim derive: unexpected token {other:?}")),
        };
        Ok(Item::Struct { name, shape })
    } else {
        let body = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
            other => {
                return Err(format!(
                    "serde shim derive: expected enum body, got {other:?}"
                ))
            }
        };
        Ok(Item::Enum {
            name,
            variants: parse_variants(body)?,
        })
    }
}

fn ident_at(tokens: &[TokenTree], i: usize) -> Option<&str> {
    match tokens.get(i) {
        Some(TokenTree::Ident(id)) => {
            // leak-free: compare through a thread-local buffer is overkill;
            // Ident has no as_str, so route through to_string
            Some(Box::leak(id.to_string().into_boxed_str()))
        }
        _ => None,
    }
}

/// Advances past outer attributes (`#[...]`, including doc comments) and
/// visibility (`pub`, `pub(...)`).
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // '#'
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket)
                {
                    *i += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return,
        }
    }
}

/// `name: Type, ...` — returns the field names, skipping types (angle
/// depth tracked so `Option<Vec<T>>` commas don't split fields).
fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = ident_at(&tokens, i)
            .ok_or_else(|| {
                format!(
                    "serde shim derive: expected field name, got {:?}",
                    tokens[i]
                )
            })?
            .to_string();
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                return Err(format!(
                    "serde shim derive: expected ':' after `{name}`, got {other:?}"
                ))
            }
        }
        // skip the type up to the next top-level comma
        let mut depth = 0i32;
        while let Some(t) = tokens.get(i) {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        i += 1; // the comma (or past the end)
        names.push(name);
    }
    Ok(names)
}

/// Counts fields of a tuple struct / tuple variant body.
fn parse_tuple_arity(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut arity = 1;
    let mut depth = 0i32;
    let mut trailing_comma = false;
    for t in &tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                arity += 1;
                trailing_comma = true;
                continue;
            }
            _ => {}
        }
        trailing_comma = false;
    }
    if trailing_comma {
        arity -= 1;
    }
    arity
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = ident_at(&tokens, i)
            .ok_or_else(|| format!("serde shim derive: expected variant, got {:?}", tokens[i]))?
            .to_string();
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let s = Shape::Named(parse_named_fields(g.stream())?);
                i += 1;
                s
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let s = Shape::Tuple(parse_tuple_arity(g.stream()));
                i += 1;
                s
            }
            _ => Shape::Unit,
        };
        // skip an optional discriminant and the trailing comma
        while let Some(t) = tokens.get(i) {
            if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

// ---- code generation -------------------------------------------------

fn generate(item: &Item, mode: Mode) -> String {
    match (item, mode) {
        (Item::Struct { name, shape }, Mode::Serialize) => {
            let body = match shape {
                Shape::Unit => "::serde::Value::Null".to_string(),
                Shape::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
                Shape::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                        .collect();
                    format!("::serde::Value::Array(vec![{}])", items.join(", "))
                }
                Shape::Named(fields) => object_literal(fields, "self."),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{ {body} }}\n}}"
            )
        }
        (Item::Struct { name, shape }, Mode::Deserialize) => {
            let value = match shape {
                Shape::Unit => "{ __d.skip()?; Self }".to_string(),
                Shape::Tuple(1) => "Self(::serde::Deserialize::deserialize(__d)?)".to_string(),
                Shape::Tuple(n) => tuple_from_array("Self", *n),
                Shape::Named(fields) => named_from_object("Self", fields),
            };
            deserialize_impl(name, &format!("::std::result::Result::Ok({value})"))
        }
        (Item::Enum { name, variants }, Mode::Serialize) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|var| {
                    let v = &var.name;
                    match &var.shape {
                        Shape::Unit => format!(
                            "{name}::{v} => ::serde::Value::String(\"{v}\".to_string()),"
                        ),
                        Shape::Tuple(1) => format!(
                            "{name}::{v}(x0) => ::serde::Value::Object(vec![(\"{v}\".to_string(), ::serde::Serialize::to_value(x0))]),"
                        ),
                        Shape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                            let items: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Serialize::to_value(x{i})"))
                                .collect();
                            format!(
                                "{name}::{v}({}) => ::serde::Value::Object(vec![(\"{v}\".to_string(), ::serde::Value::Array(vec![{}]))]),",
                                binds.join(", "),
                                items.join(", ")
                            )
                        }
                        Shape::Named(fields) => {
                            let binds = fields.join(", ");
                            let pairs: Vec<String> = fields
                                .iter()
                                .map(|f| format!(
                                    "(\"{f}\".to_string(), ::serde::Serialize::to_value({f}))"
                                ))
                                .collect();
                            format!(
                                "{name}::{v} {{ {binds} }} => ::serde::Value::Object(vec![(\"{v}\".to_string(), ::serde::Value::Object(vec![{}]))]),",
                                pairs.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{ match self {{\n{}\n}} }}\n}}",
                arms.join("\n")
            )
        }
        (Item::Enum { name, variants }, Mode::Deserialize) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|var| {
                    let v = &var.name;
                    let ctor = format!("{name}::{v}");
                    match &var.shape {
                        Shape::Unit => format!("(\"{v}\", true) => {ctor},"),
                        Shape::Tuple(1) => format!(
                            "(\"{v}\", false) => {ctor}(::serde::Deserialize::deserialize(__d)?),"
                        ),
                        Shape::Tuple(n) => {
                            format!("(\"{v}\", false) => {},", tuple_from_array(&ctor, *n))
                        }
                        Shape::Named(fields) => {
                            format!("(\"{v}\", false) => {},", named_from_object(&ctor, fields))
                        }
                    }
                })
                .collect();
            let body = format!(
                "let (__tag, __unit) = __d.variant(\"{name}\")?;\n\
                 let __v = match (&*__tag, __unit) {{\n{arms}\n\
                 _ => return ::std::result::Result::Err(::serde::Error::msg(::std::format!(\n\
                 \"no variant of {name} matches {{}}\", if __unit {{ \"string\" }} else {{ \"object\" }}))),\n\
                 }};\n\
                 if !__unit {{ __d.end_variant(\"{name}\")?; }}\n\
                 ::std::result::Result::Ok(__v)",
                arms = arms.join("\n"),
            );
            deserialize_impl(name, &body)
        }
    }
}

fn deserialize_impl(name: &str, body: &str) -> String {
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__d: &mut ::serde::Decoder<'_>) -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n}}"
    )
}

fn object_literal(fields: &[String], prefix: &str) -> String {
    let pairs: Vec<String> = fields
        .iter()
        .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&{prefix}{f}))"))
        .collect();
    format!("::serde::Value::Object(vec![{}])", pairs.join(", "))
}

/// Reads a struct (or struct variant) body into `ctor { .. }`: one
/// slot per field, filled in whatever order the keys come; a repeated
/// key keeps its first value and an unknown key is skipped.
fn named_from_object(ctor: &str, fields: &[String]) -> String {
    let slots: String = (0..fields.len())
        .map(|i| format!("let mut __f{i} = ::std::option::Option::None;\n"))
        .collect();
    let arms: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "\"{f}\" if __f{i}.is_none() => \
                 __f{i} = ::std::option::Option::Some(::serde::Deserialize::deserialize(__d)?),\n"
            )
        })
        .collect();
    let inits: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| format!("{f}: ::serde::or_null(__f{i})?, "))
        .collect();
    format!(
        "{{\n{slots}__d.begin_object()?;\n\
         while let ::std::option::Option::Some(__key) = __d.next_key()? {{\n\
         match &*__key {{\n{arms}_ => __d.skip()?,\n}}\n}}\n\
         {ctor} {{ {inits} }}\n}}"
    )
}

/// Reads an array of exactly `arity` elements into `ctor(..)`.
fn tuple_from_array(ctor: &str, arity: usize) -> String {
    let items: Vec<String> = (0..arity)
        .map(|_| format!("{{ __d.element({arity})?; ::serde::Deserialize::deserialize(__d)? }}"))
        .collect();
    format!(
        "{{ __d.begin_array()?; let __v = {ctor}({}); __d.end_tuple({arity})?; __v }}",
        items.join(", ")
    )
}
