//! Offline shim for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` against the
//! streaming traits in the sibling `serde` shim, using only the compiler's
//! built-in `proc_macro` API (the real crate's `syn`/`quote` stack is not
//! available offline). Each derive emits exactly one method: an encoder that
//! appends JSON text (`write_json`, object members in sorted name order) or
//! a decoder that pulls from a `serde::de::Reader` (`read_json`). The
//! representation matches upstream serde's externally-tagged defaults for
//! the shapes this workspace uses:
//!
//! * named structs -> JSON objects (honouring `#[serde(default)]` and
//!   `#[serde(default = "path")]`, with missing `Option` fields -> `None`;
//!   unknown members are skipped unless the struct carries
//!   `#[serde(deny_unknown_fields)]`)
//! * newtype / `#[serde(transparent)]` structs -> the inner value
//! * multi-field tuple structs -> JSON arrays
//! * enums -> `"Variant"` for unit variants, `{"Variant": ...}` otherwise,
//!   honouring `#[serde(rename_all = "snake_case")]`
//!
//! Unsupported shapes (generics, other attributes) panic at expansion time
//! with a clear message rather than silently mis-serializing.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed field of a struct or struct variant.
struct Field {
    name: String,
    ty: String,
    default: Option<String>, // "" = Default::default(), otherwise a fn path
}

/// One parsed enum variant.
struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

/// Container-level `#[serde(...)]` switches.
#[derive(Default)]
struct ContainerAttrs {
    snake_case: bool,
}

/// What the derive input turned out to be.
enum Item {
    NamedStruct {
        name: String,
        fields: Vec<Field>,
        deny_unknown: bool,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    UnitStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
        attrs: ContainerAttrs,
    },
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive shim: generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive shim: generated Deserialize impl parses")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Serde attribute contents gathered while skipping a run of attributes.
#[derive(Default)]
struct AttrInfo {
    default: Option<String>,
    transparent: bool,
    snake_case: bool,
    deny_unknown: bool,
}

/// Consume attributes (`#[...]`) starting at `i`; return parsed serde info.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> (AttrInfo, usize) {
    let mut info = AttrInfo::default();
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    if g.delimiter() == Delimiter::Bracket {
                        parse_attr_group(&g.stream(), &mut info);
                        i += 2;
                        continue;
                    }
                }
                break;
            }
            _ => break,
        }
    }
    (info, i)
}

/// Inspect one `#[...]` body; record serde switches, ignore everything else.
fn parse_attr_group(stream: &TokenStream, info: &mut AttrInfo) {
    let toks: Vec<TokenTree> = stream.clone().into_iter().collect();
    match toks.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return,
    }
    let Some(TokenTree::Group(inner)) = toks.get(1) else {
        return;
    };
    let inner: Vec<TokenTree> = inner.stream().into_iter().collect();
    let mut j = 0;
    while j < inner.len() {
        match &inner[j] {
            TokenTree::Ident(id) => {
                let word = id.to_string();
                let eq_lit = match (inner.get(j + 1), inner.get(j + 2)) {
                    (Some(TokenTree::Punct(p)), Some(TokenTree::Literal(l)))
                        if p.as_char() == '=' =>
                    {
                        Some(unquote(&l.to_string()))
                    }
                    _ => None,
                };
                match (word.as_str(), &eq_lit) {
                    ("default", None) => info.default = Some(String::new()),
                    ("default", Some(path)) => info.default = Some(path.clone()),
                    ("transparent", _) => info.transparent = true,
                    ("deny_unknown_fields", None) => info.deny_unknown = true,
                    ("rename_all", Some(style)) => {
                        if style == "snake_case" {
                            info.snake_case = true;
                        } else {
                            panic!("serde shim: unsupported rename_all style `{style}`");
                        }
                    }
                    other => panic!("serde shim: unsupported serde attribute `{:?}`", other.0),
                }
                j += if eq_lit.is_some() { 3 } else { 1 };
            }
            TokenTree::Punct(p) if p.as_char() == ',' => j += 1,
            t => panic!("serde shim: unexpected token in serde attribute: {t}"),
        }
    }
}

fn unquote(lit: &str) -> String {
    lit.trim_matches('"').to_string()
}

/// Skip visibility (`pub`, `pub(crate)`, ...) starting at `i`.
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if let Some(TokenTree::Ident(id)) = tokens.get(i) {
        if id.to_string() == "pub" {
            i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (container, mut i) = skip_attrs(&tokens, 0);
    i = skip_vis(&tokens, i);

    let kw = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        t => panic!("serde shim: expected struct/enum keyword, got {t:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        t => panic!("serde shim: expected type name, got {t:?}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde shim: generic type `{name}` is not supported by the offline derive");
        }
    }

    match kw.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(&g.stream());
                Item::NamedStruct {
                    name,
                    fields,
                    deny_unknown: container.deny_unknown,
                }
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_tuple_fields(&g.stream());
                Item::TupleStruct { name, arity }
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Item::UnitStruct { name },
            t => panic!("serde shim: unsupported struct body for `{name}`: {t:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let variants = parse_variants(&g.stream());
                let attrs = ContainerAttrs {
                    snake_case: container.snake_case,
                };
                Item::Enum {
                    name,
                    variants,
                    attrs,
                }
            }
            t => panic!("serde shim: expected enum body for `{name}`, got {t:?}"),
        },
        other => panic!("serde shim: cannot derive for `{other}` items"),
    }
}

/// Parse `name: Type, ...` (attribute- and visibility-prefixed) field lists.
fn parse_named_fields(stream: &TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.clone().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (attrs, after_attrs) = skip_attrs(&tokens, i);
        i = skip_vis(&tokens, after_attrs);
        let fname = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            t => panic!("serde shim: expected field name, got {t:?}"),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            t => panic!("serde shim: expected `:` after field `{fname}`, got {t:?}"),
        }
        // Consume the type: everything up to a comma at angle-depth 0.
        let mut ty = String::new();
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => {
                    depth += 1;
                    ty.push('<');
                }
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    depth -= 1;
                    ty.push('>');
                }
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                t => {
                    ty.push_str(&t.to_string());
                    ty.push(' ');
                }
            }
            i += 1;
        }
        fields.push(Field {
            name: fname,
            ty: ty.trim().to_string(),
            default: attrs.default,
        });
    }
    fields
}

/// Count comma-separated fields of a tuple struct/variant at angle-depth 0.
fn count_tuple_fields(stream: &TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.clone().into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut count = 1;
    let mut saw_trailing_comma = false;
    for t in &tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                count += 1;
                saw_trailing_comma = true;
            }
            _ => saw_trailing_comma = false,
        }
    }
    if saw_trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(stream: &TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.clone().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (_attrs, after) = skip_attrs(&tokens, i);
        i = after;
        let vname = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            t => panic!("serde shim: expected variant name, got {t:?}"),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantShape::Tuple(count_tuple_fields(&g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantShape::Struct(parse_named_fields(&g.stream()))
            }
            _ => VariantShape::Unit,
        };
        // Skip an explicit discriminant (`= expr`) up to the next comma.
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == ',' => {
                    i += 1;
                    break;
                }
                _ => i += 1,
            }
        }
        variants.push(Variant { name: vname, shape });
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn rename(attrs: &ContainerAttrs, variant: &str) -> String {
    if attrs.snake_case {
        let mut out = String::new();
        for (i, c) in variant.chars().enumerate() {
            if c.is_ascii_uppercase() {
                if i > 0 {
                    out.push('_');
                }
                out.push(c.to_ascii_lowercase());
            } else {
                out.push(c);
            }
        }
        out
    } else {
        variant.to_string()
    }
}

fn is_option(ty: &str) -> bool {
    let t = ty.trim_start_matches(":: ").trim();
    t.starts_with("Option <")
        || t.starts_with("Option<")
        || t.starts_with("std :: option :: Option")
}

/// `__out.push_str("<text>");`
fn push_lit(text: &str) -> String {
    format!("__out.push_str({text:?});\n")
}

/// `<expr>.write_json(__out);`
fn write_expr(expr: &str) -> String {
    format!("::serde::Serialize::write_json({expr}, __out);\n")
}

/// Statements writing `fields` as a JSON object, members in sorted name
/// order — the order a `BTreeMap`-backed tree prints, and the one invariant
/// that keeps typed output and `Value` output byte-identical. `access` maps
/// a field name to the expression borrowing it.
fn write_object(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
    names.sort_unstable();
    let mut code = String::new();
    for (i, n) in names.iter().enumerate() {
        let lead = if i == 0 { "{" } else { "," };
        code.push_str(&push_lit(&format!("{lead}\"{n}\":")));
        code.push_str(&write_expr(&access(n)));
    }
    code.push_str(&push_lit(if names.is_empty() { "{}" } else { "}" }));
    code
}

/// Statements writing `exprs` as the payload of a tuple struct or variant:
/// the bare value for one field, a JSON array otherwise.
fn write_tuple(exprs: &[String]) -> String {
    if let [only] = exprs {
        return write_expr(only);
    }
    let mut code = push_lit("[");
    for (i, e) in exprs.iter().enumerate() {
        if i > 0 {
            code.push_str(&push_lit(","));
        }
        code.push_str(&write_expr(e));
    }
    code.push_str(&push_lit("]"));
    code
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields, .. } => {
            wrap_ser(name, &write_object(fields, |n| format!("&self.{n}")))
        }
        Item::TupleStruct { name, arity } => {
            let exprs: Vec<String> = (0..*arity).map(|k| format!("&self.{k}")).collect();
            wrap_ser(name, &write_tuple(&exprs))
        }
        Item::UnitStruct { name } => wrap_ser(name, &push_lit("null")),
        Item::Enum {
            name,
            variants,
            attrs,
        } => {
            let mut arms = String::new();
            for v in variants {
                let tag = rename(attrs, &v.name);
                let open = push_lit(&format!("{{\"{tag}\":"));
                let close = push_lit("}");
                match &v.shape {
                    VariantShape::Unit => arms.push_str(&format!(
                        "{name}::{v} => {{\n{lit}}}\n",
                        v = v.name,
                        lit = push_lit(&format!("\"{tag}\""))
                    )),
                    VariantShape::Tuple(arity) => {
                        let binds: Vec<String> = (0..*arity).map(|k| format!("__f{k}")).collect();
                        arms.push_str(&format!(
                            "{name}::{v}({binds}) => {{\n{open}{inner}{close}}}\n",
                            v = v.name,
                            binds = binds.join(", "),
                            inner = write_tuple(&binds),
                        ));
                    }
                    VariantShape::Struct(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        arms.push_str(&format!(
                            "{name}::{v} {{ {binds} }} => {{\n{open}{inner}{close}}}\n",
                            v = v.name,
                            binds = binds.join(", "),
                            inner = write_object(fields, str::to_string),
                        ));
                    }
                }
            }
            wrap_ser(name, &format!("match self {{\n{arms}}}"))
        }
    }
}

fn wrap_ser(name: &str, body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn write_json(&self, __out: &mut ::std::string::String) {{\n{body}\n}}\n}}\n"
    )
}

/// Expression decoding an object's members from `__r` into `ctor {{ .. }}`:
/// one `Option` slot per field, filled as keys arrive (so a repeated key's
/// last value wins), unknown members skipped with their syntax checked (an
/// error under `deny_unknown`), absent ones resolved through `default` /
/// `Option` / an error.
fn read_object(ctor: &str, fields: &[Field], deny_unknown: bool) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (i, f) in fields.iter().enumerate() {
        slots.push_str(&format!("let mut __s{i} = ::std::option::Option::None;\n"));
        arms.push_str(&format!(
            "\"{n}\" => __s{i} = ::std::option::Option::Some(::serde::Deserialize::read_json(__r)?),\n",
            n = f.name
        ));
        let missing = match &f.default {
            Some(path) if path.is_empty() => "::std::default::Default::default()".to_string(),
            Some(path) => format!("{path}()"),
            None if is_option(&f.ty) => "::std::option::Option::None".to_string(),
            None => format!(
                "return ::std::result::Result::Err(::serde::de::Error::missing_field(\"{n}\"))",
                n = f.name
            ),
        };
        inits.push_str(&format!(
            "{n}: match __s{i} {{\n\
             ::std::option::Option::Some(__v) => __v,\n\
             ::std::option::Option::None => {missing},\n}},\n",
            n = f.name
        ));
    }
    let unknown = if deny_unknown {
        "__other => return ::std::result::Result::Err(::serde::de::Error::custom(\
         ::std::format!(\"unknown field `{}`\", __other))),"
    } else {
        "_ => __r.skip_value()?,"
    };
    format!(
        "{{\n{slots}\
         let mut __key = __r.begin_object()?;\n\
         while let ::std::option::Option::Some(__k) = __key {{\n\
         match &*__k {{\n{arms}{unknown}\n}}\n\
         __key = __r.next_key()?;\n}}\n\
         {ctor} {{\n{inits}}}\n}}"
    )
}

/// Expression decoding the payload of a tuple struct or variant into
/// `ctor(..)`: the bare value for one field, a JSON array of exactly
/// `arity` elements otherwise.
fn read_tuple(ctor: &str, arity: usize) -> String {
    if arity == 1 {
        return format!("{ctor}(::serde::Deserialize::read_json(__r)?)");
    }
    let elems = vec!["__r.element(&mut __more)?"; arity].join(", ");
    format!(
        "{{\nlet mut __more = __r.begin_array()?;\n\
         let __v = {ctor}({elems});\n\
         __r.end_array(__more)?;\n__v\n}}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::NamedStruct {
            name,
            fields,
            deny_unknown,
        } => wrap_de(
            name,
            &format!("Ok({})", read_object(name, fields, *deny_unknown)),
        ),
        Item::TupleStruct { name, arity } => {
            wrap_de(name, &format!("Ok({})", read_tuple(name, *arity)))
        }
        Item::UnitStruct { name } => wrap_de(name, &format!("__r.skip_value()?;\nOk({name})")),
        Item::Enum {
            name,
            variants,
            attrs,
        } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let tag = rename(attrs, &v.name);
                let ctor = format!("{name}::{}", v.name);
                match &v.shape {
                    VariantShape::Unit => {
                        unit_arms.push_str(&format!("\"{tag}\" => Ok({ctor}),\n"));
                        // Accept the `{"Variant": null}` object form as well.
                        tagged_arms.push_str(&format!(
                            "\"{tag}\" => {{\n__r.skip_value()?;\n{ctor}\n}}\n"
                        ));
                    }
                    VariantShape::Tuple(arity) => tagged_arms
                        .push_str(&format!("\"{tag}\" => {},\n", read_tuple(&ctor, *arity))),
                    VariantShape::Struct(fields) => tagged_arms.push_str(&format!(
                        "\"{tag}\" => {},\n",
                        read_object(&ctor, fields, false)
                    )),
                }
            }
            let unknown = format!(
                "::std::result::Result::Err(::serde::de::Error::unknown_variant(__other, \"{name}\"))"
            );
            let body = format!(
                "match __r.peek() {{\n\
                 ::std::option::Option::Some(b'\"') => match &*__r.str()? {{\n\
                 {unit_arms}\
                 __other => {unknown},\n}},\n\
                 ::std::option::Option::Some(b'{{') => {{\n\
                 let ::std::option::Option::Some(__tag) = __r.begin_object()? else {{\n\
                 return ::std::result::Result::Err(__r.invalid_type(\"enum {name} (one variant key)\"));\n}};\n\
                 let __v = match &*__tag {{\n\
                 {tagged_arms}\
                 __other => return {unknown},\n}};\n\
                 __r.end_object()?;\n\
                 Ok(__v)\n}}\n\
                 _ => ::std::result::Result::Err(__r.invalid_type(\"enum {name}\")),\n}}"
            );
            wrap_de(name, &body)
        }
    }
}

fn wrap_de(name: &str, body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
         fn read_json(__r: &mut ::serde::de::Reader<'_>) -> ::std::result::Result<Self, ::serde::de::Error> {{\n{body}\n}}\n}}\n"
    )
}
