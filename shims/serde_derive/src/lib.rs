//! Offline stand-in for `serde_derive`.
//!
//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` proc
//! macros with no syn/quote dependency: the item's token stream is parsed
//! directly into a small shape model, and the impl is generated as source
//! text. Deliberately supports only the shapes and attributes the gadget
//! workspace uses:
//!
//! * named-field structs, newtype structs;
//! * enums with unit, newtype, and struct variants;
//! * container attrs `#[serde(tag = "...")]` (internal tagging),
//!   `#[serde(rename_all = "snake_case")]` and, on named-field structs,
//!   `#[serde(deny_unknown_fields)]` (any other member is an error);
//! * field attrs `#[serde(default)]` and `#[serde(default = "path")]`.
//!
//! Field *types* are never inspected: generated deserialization code
//! relies on type inference through `serde::Deserialize::from_value`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let container = match parse_container(input) {
        Ok(c) => c,
        Err(msg) => return compile_error(&msg),
    };
    let code = match mode {
        Mode::Serialize => gen_serialize(&container),
        Mode::Deserialize => gen_deserialize(&container),
    };
    match code.parse() {
        Ok(ts) => ts,
        Err(e) => compile_error(&format!(
            "serde_derive shim produced invalid code for `{}`: {e}",
            container.name
        )),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

// ---------------------------------------------------------------------------
// Shape model
// ---------------------------------------------------------------------------

struct Container {
    name: String,
    /// `#[serde(tag = "...")]`: internally tagged enum.
    tag: Option<String>,
    /// `#[serde(rename_all = "snake_case")]`.
    snake_case: bool,
    /// `#[serde(deny_unknown_fields)]`.
    deny_unknown_fields: bool,
    data: Data,
}

enum Data {
    NamedStruct(Vec<Field>),
    NewtypeStruct,
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    default: FieldDefault,
}

#[derive(Clone, PartialEq)]
enum FieldDefault {
    Required,
    Std,
    Path(String),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

/// Container- or field-level `#[serde(...)]` settings.
#[derive(Default)]
struct SerdeAttrs {
    tag: Option<String>,
    rename_all: Option<String>,
    deny_unknown_fields: bool,
    default: Option<FieldDefault>,
}

// ---------------------------------------------------------------------------
// Token-stream parsing
// ---------------------------------------------------------------------------

fn parse_container(input: TokenStream) -> Result<Container, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;

    let attrs = parse_attrs(&tokens, &mut pos)?;
    skip_visibility(&tokens, &mut pos);

    let kind = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    pos += 1;
    let name = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    pos += 1;
    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde_derive shim: generic type `{name}` is not supported"
        ));
    }

    let data = match kind.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::NamedStruct(parse_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_tuple_fields(g.stream());
                if arity == 1 {
                    Data::NewtypeStruct
                } else {
                    return Err(format!(
                        "serde_derive shim: tuple struct `{name}` with {arity} fields is not supported"
                    ));
                }
            }
            other => return Err(format!("unsupported struct body for `{name}`: {other:?}")),
        },
        "enum" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Enum(parse_variants(g.stream())?)
            }
            other => return Err(format!("expected enum body for `{name}`, found {other:?}")),
        },
        other => return Err(format!("cannot derive serde impls for `{other}`")),
    };
    if attrs.deny_unknown_fields && !matches!(data, Data::NamedStruct(_)) {
        return Err(format!(
            "serde_derive shim: deny_unknown_fields on `{name}` needs a named-field struct"
        ));
    }

    Ok(Container {
        name,
        tag: attrs.tag,
        deny_unknown_fields: attrs.deny_unknown_fields,
        snake_case: match attrs.rename_all.as_deref() {
            None => false,
            Some("snake_case") => true,
            Some(other) => {
                return Err(format!(
                    "serde_derive shim: rename_all = \"{other}\" is not supported"
                ))
            }
        },
        data,
    })
}

/// Parses and consumes leading `#[...]` attributes, extracting serde ones.
fn parse_attrs(tokens: &[TokenTree], pos: &mut usize) -> Result<SerdeAttrs, String> {
    let mut attrs = SerdeAttrs::default();
    while matches!(tokens.get(*pos), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        let group = match tokens.get(*pos + 1) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g,
            other => return Err(format!("malformed attribute: {other:?}")),
        };
        let inner: Vec<TokenTree> = group.stream().into_iter().collect();
        if matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
            let args = match inner.get(1) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g.stream(),
                other => return Err(format!("malformed #[serde(...)] attribute: {other:?}")),
            };
            parse_serde_args(args, &mut attrs)?;
        }
        *pos += 2;
    }
    Ok(attrs)
}

/// Parses the inside of `#[serde(...)]`: comma-separated `name` or
/// `name = "literal"` items.
fn parse_serde_args(stream: TokenStream, attrs: &mut SerdeAttrs) -> Result<(), String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    while pos < tokens.len() {
        let key = match &tokens[pos] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("unexpected token in #[serde(...)]: {other}")),
        };
        pos += 1;
        let value = if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            pos += 1;
            match tokens.get(pos) {
                Some(TokenTree::Literal(lit)) => {
                    pos += 1;
                    Some(unquote(&lit.to_string())?)
                }
                other => return Err(format!("expected string after `{key} =`: {other:?}")),
            }
        } else {
            None
        };
        match (key.as_str(), &value) {
            ("tag", Some(v)) => attrs.tag = Some(v.clone()),
            ("rename_all", Some(v)) => attrs.rename_all = Some(v.clone()),
            ("deny_unknown_fields", None) => attrs.deny_unknown_fields = true,
            ("default", None) => attrs.default = Some(FieldDefault::Std),
            ("default", Some(v)) => attrs.default = Some(FieldDefault::Path(v.clone())),
            _ => {
                return Err(format!(
                    "serde_derive shim: unsupported serde attribute `{key}`"
                ))
            }
        }
        if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            pos += 1;
        }
    }
    Ok(())
}

fn unquote(lit: &str) -> Result<String, String> {
    let s = lit.trim();
    if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
        Ok(s[1..s.len() - 1].to_string())
    } else {
        Err(format!("expected string literal, found {lit}"))
    }
}

fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(tokens.get(*pos), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *pos += 1;
        if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *pos += 1;
        }
    }
}

/// Parses named fields: `[attrs] [vis] name : Type, ...`. Types are
/// skipped, not inspected; angle-bracket depth is tracked so commas
/// inside generics don't split fields.
fn parse_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        let attrs = parse_attrs(&tokens, &mut pos)?;
        skip_visibility(&tokens, &mut pos);
        let name = match tokens.get(pos) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, found {other:?}")),
        };
        pos += 1;
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => return Err(format!("expected `:` after field `{name}`: {other:?}")),
        }
        skip_type(&tokens, &mut pos);
        fields.push(Field {
            name,
            default: attrs.default.unwrap_or(FieldDefault::Required),
        });
        if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            pos += 1;
        }
    }
    Ok(fields)
}

/// Advances past one type, stopping at a top-level `,` (or end).
fn skip_type(tokens: &[TokenTree], pos: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(tok) = tokens.get(*pos) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                ',' if angle_depth == 0 => return,
                '<' => angle_depth += 1,
                '-' => {
                    // `->` in fn types: skip the `>` so it doesn't close a generic.
                    if matches!(tokens.get(*pos + 1), Some(TokenTree::Punct(n)) if n.as_char() == '>')
                    {
                        *pos += 1;
                    }
                }
                '>' => angle_depth -= 1,
                _ => {}
            }
        }
        *pos += 1;
    }
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle_depth = 0i32;
    for tok in &tokens {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                ',' if angle_depth == 0 => count += 1,
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                _ => {}
            }
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut variants = Vec::new();
    while pos < tokens.len() {
        parse_attrs(&tokens, &mut pos)?;
        let name = match tokens.get(pos) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        pos += 1;
        let shape = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                let arity = count_tuple_fields(g.stream());
                if arity != 1 {
                    return Err(format!(
                        "serde_derive shim: tuple variant `{name}` with {arity} fields is not supported"
                    ));
                }
                VariantShape::Newtype
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                VariantShape::Struct(parse_fields(g.stream())?)
            }
            _ => VariantShape::Unit,
        };
        // Skip an explicit discriminant (`= expr`) if present.
        if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            pos += 1;
            while pos < tokens.len()
                && !matches!(&tokens[pos], TokenTree::Punct(p) if p.as_char() == ',')
            {
                pos += 1;
            }
        }
        variants.push(Variant { name, shape });
        if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            pos += 1;
        }
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Name handling
// ---------------------------------------------------------------------------

fn snake_case(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, ch) in name.chars().enumerate() {
        if ch.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(ch.to_ascii_lowercase());
        } else {
            out.push(ch);
        }
    }
    out
}

impl Container {
    fn variant_label(&self, variant: &str) -> String {
        if self.snake_case {
            snake_case(variant)
        } else {
            variant.to_string()
        }
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn fields_to_object(fields: &[Field], access_prefix: &str) -> String {
    let members: Vec<String> = fields
        .iter()
        .map(|f| {
            format!(
                "(::std::string::String::from({n:?}), ::serde::Serialize::to_value(&{p}{n}))",
                n = f.name,
                p = access_prefix
            )
        })
        .collect();
    format!(
        "::serde::Value::Object(::std::vec![{}])",
        members.join(", ")
    )
}

/// `field_name: <value drawn from __obj or default>` initializers.
fn fields_from_object(fields: &[Field], context: &str) -> String {
    fields
        .iter()
        .map(|f| {
            let fallback = match &f.default {
                FieldDefault::Required => format!(
                    "return ::std::result::Result::Err(::serde::Error::missing_field({:?}, {:?}))",
                    f.name, context
                ),
                FieldDefault::Std => "::std::default::Default::default()".to_string(),
                FieldDefault::Path(path) => format!("{path}()"),
            };
            format!(
                "{n}: match ::serde::find_field(__obj, {n:?}) {{ \
                   ::std::option::Option::Some(__x) => ::serde::Deserialize::from_value(__x)?, \
                   ::std::option::Option::None => {fallback}, \
                 }}",
                n = f.name
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn gen_serialize(c: &Container) -> String {
    let name = &c.name;
    let body = match &c.data {
        Data::NamedStruct(fields) => fields_to_object(fields, "self."),
        Data::NewtypeStruct => "::serde::Serialize::to_value(&self.0)".to_string(),
        Data::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let label = c.variant_label(&v.name);
                    match (&c.tag, &v.shape) {
                        (None, VariantShape::Unit) => format!(
                            "{name}::{v} => ::serde::Value::Str(::std::string::String::from({label:?})),",
                            v = v.name
                        ),
                        (None, VariantShape::Newtype) => format!(
                            "{name}::{v}(__f0) => ::serde::Value::Object(::std::vec![\
                               (::std::string::String::from({label:?}), ::serde::Serialize::to_value(__f0))]),",
                            v = v.name
                        ),
                        (None, VariantShape::Struct(fields)) => {
                            let pat: Vec<&str> =
                                fields.iter().map(|f| f.name.as_str()).collect();
                            format!(
                                "{name}::{v} {{ {pat} }} => ::serde::Value::Object(::std::vec![\
                                   (::std::string::String::from({label:?}), {inner})]),",
                                v = v.name,
                                pat = pat.join(", "),
                                inner = fields_to_object(fields, "")
                            )
                        }
                        (Some(tag), VariantShape::Unit) => format!(
                            "{name}::{v} => ::serde::Value::Object(::std::vec![\
                               (::std::string::String::from({tag:?}), \
                                ::serde::Value::Str(::std::string::String::from({label:?})))]),",
                            v = v.name
                        ),
                        (Some(tag), VariantShape::Newtype) => format!(
                            "{name}::{v}(__f0) => {{ \
                               let mut __m = ::std::vec![(::std::string::String::from({tag:?}), \
                                 ::serde::Value::Str(::std::string::String::from({label:?})))]; \
                               match ::serde::Serialize::to_value(__f0) {{ \
                                 ::serde::Value::Object(__inner) => __m.extend(__inner), \
                                 _ => panic!(\"internally tagged newtype variant must serialize to an object\"), \
                               }} \
                               ::serde::Value::Object(__m) \
                             }},",
                            v = v.name
                        ),
                        (Some(tag), VariantShape::Struct(fields)) => {
                            let pat: Vec<&str> =
                                fields.iter().map(|f| f.name.as_str()).collect();
                            let members: Vec<String> = std::iter::once(format!(
                                "(::std::string::String::from({tag:?}), \
                                 ::serde::Value::Str(::std::string::String::from({label:?})))"
                            ))
                            .chain(fields.iter().map(|f| {
                                format!(
                                    "(::std::string::String::from({n:?}), ::serde::Serialize::to_value(&{n}))",
                                    n = f.name
                                )
                            }))
                            .collect();
                            format!(
                                "{name}::{v} {{ {pat} }} => ::serde::Value::Object(::std::vec![{members}]),",
                                v = v.name,
                                pat = pat.join(", "),
                                members = members.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "#[automatically_derived] #[allow(clippy::all, unused_mut)] impl ::serde::Serialize for {name} {{ \
           fn to_value(&self) -> ::serde::Value {{ {body} }} \
         }}"
    )
}

fn gen_deserialize(c: &Container) -> String {
    let name = &c.name;
    let body = match &c.data {
        Data::NamedStruct(fields) => format!(
            "let __obj = match __v.as_object() {{ \
               ::std::option::Option::Some(__m) => __m, \
               ::std::option::Option::None => \
                 return ::std::result::Result::Err(::serde::Error::expected(\"object\", __v, {name:?})), \
             }}; \
             {deny} \
             ::std::result::Result::Ok({name} {{ {inits} }})",
            deny = if c.deny_unknown_fields {
                let known: Vec<String> = fields.iter().map(|f| format!("{:?}", f.name)).collect();
                format!(
                    "const __KNOWN: &[&str] = &[{}]; \
                     if let ::std::option::Option::Some((__k, _)) = \
                       __obj.iter().find(|(__k, _)| !__KNOWN.contains(&__k.as_str())) {{ \
                       return ::std::result::Result::Err(::serde::Error::unknown_field(__k, {name:?})); \
                     }}",
                    known.join(", ")
                )
            } else {
                String::new()
            },
            inits = fields_from_object(fields, name)
        ),
        Data::NewtypeStruct => format!(
            "::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))"
        ),
        Data::Enum(variants) => match &c.tag {
            None => gen_deserialize_external(c, variants, name),
            Some(tag) => gen_deserialize_internal(c, variants, name, tag),
        },
    };
    format!(
        "#[automatically_derived] #[allow(clippy::all)] impl ::serde::Deserialize for {name} {{ \
           fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} \
         }}"
    )
}

fn gen_deserialize_external(c: &Container, variants: &[Variant], name: &str) -> String {
    let unit_arms: Vec<String> = variants
        .iter()
        .filter(|v| matches!(v.shape, VariantShape::Unit))
        .map(|v| {
            format!(
                "{label:?} => ::std::result::Result::Ok({name}::{v}),",
                label = c.variant_label(&v.name),
                v = v.name
            )
        })
        .collect();
    let keyed_arms: Vec<String> = variants
        .iter()
        .filter_map(|v| {
            let label = c.variant_label(&v.name);
            match &v.shape {
                VariantShape::Unit => None,
                VariantShape::Newtype => Some(format!(
                    "{label:?} => ::std::result::Result::Ok({name}::{v}(::serde::Deserialize::from_value(__inner)?)),",
                    v = v.name
                )),
                VariantShape::Struct(fields) => Some(format!(
                    "{label:?} => {{ \
                       let __obj = match __inner.as_object() {{ \
                         ::std::option::Option::Some(__m) => __m, \
                         ::std::option::Option::None => \
                           return ::std::result::Result::Err(::serde::Error::expected(\"object\", __inner, {name:?})), \
                       }}; \
                       ::std::result::Result::Ok({name}::{v} {{ {inits} }}) \
                     }},",
                    v = v.name,
                    inits = fields_from_object(fields, name)
                )),
            }
        })
        .collect();
    format!(
        "match __v {{ \
           ::serde::Value::Str(__s) => match __s.as_str() {{ \
             {unit_arms} \
             __other => ::std::result::Result::Err(::serde::Error::unknown_variant(__other, {name:?})), \
           }}, \
           ::serde::Value::Object(__members) if __members.len() == 1 => {{ \
             let (__tag, __inner) = &__members[0]; \
             match __tag.as_str() {{ \
               {keyed_arms} \
               __other => ::std::result::Result::Err(::serde::Error::unknown_variant(__other, {name:?})), \
             }} \
           }} \
           __other => ::std::result::Result::Err(::serde::Error::expected(\
             \"string or single-key object\", __other, {name:?})), \
         }}",
        unit_arms = unit_arms.join(" "),
        keyed_arms = keyed_arms.join(" ")
    )
}

fn gen_deserialize_internal(c: &Container, variants: &[Variant], name: &str, tag: &str) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|v| {
            let label = c.variant_label(&v.name);
            match &v.shape {
                VariantShape::Unit => format!(
                    "{label:?} => ::std::result::Result::Ok({name}::{v}),",
                    v = v.name
                ),
                // The newtype payload deserializes from the whole object;
                // the extra tag member is ignored by the inner struct.
                VariantShape::Newtype => format!(
                    "{label:?} => ::std::result::Result::Ok({name}::{v}(::serde::Deserialize::from_value(__v)?)),",
                    v = v.name
                ),
                VariantShape::Struct(fields) => format!(
                    "{label:?} => ::std::result::Result::Ok({name}::{v} {{ {inits} }}),",
                    v = v.name,
                    inits = fields_from_object(fields, name)
                ),
            }
        })
        .collect();
    format!(
        "let __obj = match __v.as_object() {{ \
           ::std::option::Option::Some(__m) => __m, \
           ::std::option::Option::None => \
             return ::std::result::Result::Err(::serde::Error::expected(\"object\", __v, {name:?})), \
         }}; \
         let __tag = match ::serde::find_field(__obj, {tag:?}).and_then(::serde::Value::as_str) {{ \
           ::std::option::Option::Some(__t) => __t, \
           ::std::option::Option::None => \
             return ::std::result::Result::Err(::serde::Error::missing_field({tag:?}, {name:?})), \
         }}; \
         match __tag {{ \
           {arms} \
           __other => ::std::result::Result::Err(::serde::Error::unknown_variant(__other, {name:?})), \
         }}",
        arms = arms.join(" ")
    )
}
