//! Plain-CSV import/export of observation tables and gold standards.
//!
//! The paper's original data sets were distributed as delimited text files
//! (one claim per line). This module lets the library run over real crawled
//! data in that spirit, without pulling in an external CSV dependency:
//!
//! * observation files: `source,object,attribute,value` — one claim per line;
//! * gold files: `object,attribute,value` — one reference value per line.
//!
//! Values are parsed according to the attribute kind declared in the
//! [`DomainSchema`]: numeric attributes accept plain numbers with optional
//! thousands separators and `K`/`M`/`B` suffixes (the normalization the paper
//! performs manually), time attributes accept minutes or `HH:MM`, categorical
//! attributes are taken verbatim.

use crate::gold::GoldStandard;
use crate::ids::{AttrId, ObjectId, SourceId};
use crate::schema::{AttrKind, DomainSchema};
use crate::snapshot::{Snapshot, SnapshotBuilder};
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An error produced while parsing CSV claims.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line number the error occurred on (0 for structural errors).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

fn err(line: usize, message: impl Into<String>) -> CsvError {
    CsvError {
        line,
        message: message.into(),
    }
}

/// Incrementally maps external string identifiers to dense ids.
#[derive(Debug, Default)]
struct Interner {
    map: BTreeMap<String, u32>,
}

impl Interner {
    fn get_or_insert(&mut self, key: &str) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(key.to_string()).or_insert(next)
    }

    fn get(&self, key: &str) -> Option<u32> {
        self.map.get(key).copied()
    }
}

/// Parses claim files against a fixed schema, interning source and object
/// names as it goes.
#[derive(Debug)]
pub struct CsvReader {
    schema: DomainSchema,
    attr_by_name: BTreeMap<String, AttrId>,
    sources: Interner,
    objects: Interner,
}

impl CsvReader {
    /// Create a reader for a schema whose attributes are already declared.
    /// Source entries are added to the schema as they are first seen.
    pub fn new(schema: DomainSchema) -> Self {
        let attr_by_name = schema
            .attributes
            .iter()
            .map(|a| (normalize_key(&a.name), a.id))
            .collect();
        Self {
            schema,
            attr_by_name,
            sources: Interner::default(),
            objects: Interner::default(),
        }
    }

    /// Parse one observation file (claims) into a [`Snapshot`] for `day`.
    ///
    /// Lines are `source,object,attribute,value`; empty lines and lines
    /// starting with `#` are skipped. Unknown attributes are an error.
    pub fn read_snapshot(&mut self, day: u32, text: &str) -> Result<Snapshot, CsvError> {
        let mut builder = SnapshotBuilder::new(day);
        for (idx, raw_line) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields = split_fields(line, 4).map_err(|m| err(line_no, m))?;
            let source = self.intern_source(&fields[0]);
            let object = ObjectId(self.objects.get_or_insert(fields[1].trim()));
            let attr = self.lookup_attr(&fields[2], line_no)?;
            let value = self.parse_value(attr, &fields[3], line_no)?;
            builder.add(source, object, attr, value);
        }
        Ok(builder.build(Arc::new(self.schema.clone())))
    }

    /// Parse one gold-standard file (`object,attribute,value`).
    pub fn read_gold(&mut self, text: &str) -> Result<GoldStandard, CsvError> {
        let mut gold = GoldStandard::new();
        for (idx, raw_line) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields = split_fields(line, 3).map_err(|m| err(line_no, m))?;
            let object = match self.objects.get(fields[0].trim()) {
                Some(id) => ObjectId(id),
                None => ObjectId(self.objects.get_or_insert(fields[0].trim())),
            };
            let attr = self.lookup_attr(&fields[1], line_no)?;
            let value = self.parse_value(attr, &fields[2], line_no)?;
            gold.insert(crate::ids::ItemId::new(object, attr), value);
        }
        Ok(gold)
    }

    /// The (possibly source-augmented) schema.
    pub fn schema(&self) -> &DomainSchema {
        &self.schema
    }

    fn intern_source(&mut self, name: &str) -> SourceId {
        let name = name.trim();
        match self
            .schema
            .sources
            .iter()
            .find(|s| s.name.eq_ignore_ascii_case(name))
        {
            Some(s) => s.id,
            None => {
                self.sources.get_or_insert(name);
                self.schema.add_source(name, false)
            }
        }
    }

    fn lookup_attr(&self, name: &str, line: usize) -> Result<AttrId, CsvError> {
        self.attr_by_name
            .get(&normalize_key(name))
            .copied()
            .ok_or_else(|| err(line, format!("unknown attribute '{}'", name.trim())))
    }

    fn parse_value(&self, attr: AttrId, raw: &str, line: usize) -> Result<Value, CsvError> {
        let raw = raw.trim();
        match self.schema.attribute(attr).kind {
            AttrKind::Numeric { .. } => {
                parse_number(raw).map_err(|reason| err(line, format!("{reason} '{raw}'")))
            }
            AttrKind::Time => parse_time(raw)
                .map(Value::time)
                .ok_or_else(|| err(line, format!("invalid time '{raw}'"))),
            AttrKind::Categorical { .. } => Ok(Value::text(raw)),
        }
    }
}

/// Render a snapshot back to the claim-file format (inverse of
/// [`CsvReader::read_snapshot`]), mainly for round-trip tests and debugging.
pub fn write_snapshot(snapshot: &Snapshot) -> String {
    let mut out = String::from("# source,object,attribute,value\n");
    for (item, obs) in snapshot.items() {
        let attr_name = &snapshot.schema().attribute(item.attr).name;
        for o in obs {
            let source_name = &snapshot.schema().source(o.source).name;
            out.push_str(&format!(
                "{source_name},{},{attr_name},{}\n",
                item.object.0, o.value
            ));
        }
    }
    out
}

fn normalize_key(s: &str) -> String {
    s.trim().to_lowercase()
}

fn split_fields(line: &str, expected: usize) -> Result<Vec<String>, String> {
    let fields: Vec<String> = line.splitn(expected, ',').map(|f| f.to_string()).collect();
    if fields.len() != expected {
        return Err(format!(
            "expected {expected} comma-separated fields, found {}",
            fields.len()
        ));
    }
    Ok(fields)
}

/// Parse a numeric string (see [`parse_scaled`]) into a number value,
/// rounded to its suffix granularity.
///
/// Fails with the reason when the string is not a number, or when the
/// number is not [finite](Value::is_finite): `NaN`, `inf`, or a literal such
/// as `1e400` or `1e308B` that overflows.
fn parse_number(raw: &str) -> Result<Value, &'static str> {
    let (value, granularity) = parse_scaled(raw).ok_or("invalid number")?;
    let value = if granularity > 0.0 {
        Value::rounded_number(value, granularity)
    } else {
        Value::number(value)
    };
    if value.is_finite() {
        Ok(value)
    } else {
        Err("non-finite number")
    }
}

/// Parse a numeric string with optional thousands separators, `$`/`%` noise,
/// and `K`/`M`/`B` suffixes. Returns `(value, granularity)` where the
/// granularity reflects the suffix rounding (e.g. `"6.7M"` has granularity
/// 100 000 because one decimal of a million is shown).
fn parse_scaled(raw: &str) -> Option<(f64, f64)> {
    let cleaned: String = raw
        .chars()
        .filter(|c| !matches!(c, ',' | '$' | '%' | ' '))
        .collect();
    if cleaned.is_empty() {
        return None;
    }
    let (body, multiplier) = match cleaned.chars().last().map(|c| c.to_ascii_uppercase()) {
        Some('K') => (&cleaned[..cleaned.len() - 1], 1e3),
        Some('M') => (&cleaned[..cleaned.len() - 1], 1e6),
        Some('B') => (&cleaned[..cleaned.len() - 1], 1e9),
        _ => (cleaned.as_str(), 1.0),
    };
    let value: f64 = body.parse().ok()?;
    if multiplier == 1.0 {
        return Some((value, 0.0));
    }
    // Granularity: one unit of the least-significant shown digit.
    let decimals = body.split('.').nth(1).map(|d| d.len() as i32).unwrap_or(0);
    let granularity = multiplier * 10f64.powi(-decimals);
    Some((value * multiplier, granularity))
}

/// Parse a time as raw minutes or `HH:MM` (24-hour).
fn parse_time(raw: &str) -> Option<i64> {
    if let Ok(minutes) = raw.parse::<i64>() {
        return Some(minutes);
    }
    let (h, m) = raw.split_once(':')?;
    let hours: i64 = h.trim().parse().ok()?;
    let minutes: i64 = m.trim().parse().ok()?;
    if !(0..24).contains(&hours) || !(0..60).contains(&minutes) {
        return None;
    }
    Some(hours * 60 + minutes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ItemId;

    fn schema() -> DomainSchema {
        let mut s = DomainSchema::new("stock");
        s.add_attribute("Last price", AttrKind::Numeric { scale: 100.0 }, false);
        s.add_attribute("Volume", AttrKind::Numeric { scale: 1e6 }, false);
        s.add_attribute("Scheduled departure", AttrKind::Time, false);
        s.add_attribute("Departure gate", AttrKind::Categorical { cardinality: 40 }, false);
        s
    }

    #[test]
    fn parses_claims_and_gold() {
        let mut reader = CsvReader::new(schema());
        let snapshot = reader
            .read_snapshot(
                0,
                "# comment\n\
                 yahoo,AAPL,Last price,399.20\n\
                 google,AAPL,Last price,$399.25\n\
                 yahoo,AAPL,Volume,6{COMMA}700{COMMA}000\n\
                 stocksmart,AAPL,Volume,6.7M\n\
                 orbitz,AA119,Scheduled departure,18:15\n\
                 orbitz,AA119,Departure gate, D30 \n"
                    .replace("{COMMA}", ",")
                    .as_str(),
            )
            .expect("valid claims");
        assert_eq!(snapshot.num_observations(), 6);
        assert_eq!(snapshot.active_sources().len(), 4);

        let gold = reader
            .read_gold("AAPL,Last price,399.22\nAA119,Scheduled departure,1095\n")
            .expect("valid gold");
        assert_eq!(gold.len(), 2);
        // The two price claims fall within the 1% tolerance of the gold value.
        let price_item = ItemId::new(ObjectId(0), AttrId(0));
        for o in snapshot.observations(price_item) {
            assert_eq!(gold.judge(&snapshot, price_item, &o.value), Some(true));
        }
    }

    #[test]
    fn number_normalization_matches_paper_examples() {
        // "6.7M", "6,700,000" and "6700000" are the same value.
        assert_eq!(parse_scaled("6.7M").unwrap().0, 6_700_000.0);
        assert_eq!(parse_scaled("6,700,000").unwrap().0, 6_700_000.0);
        assert_eq!(parse_scaled("6700000").unwrap().0, 6_700_000.0);
        // Suffix granularity: one decimal of a million.
        assert_eq!(parse_scaled("6.7M").unwrap().1, 100_000.0);
        assert_eq!(parse_scaled("76B").unwrap().0, 76e9);
        assert!(parse_scaled("n/a").is_none());
        assert_eq!(
            parse_number("6.7M"),
            Ok(Value::rounded_number(6_700_000.0, 100_000.0))
        );
        assert_eq!(parse_number("6,700,000"), Ok(Value::number(6_700_000.0)));
        assert_eq!(parse_number("n/a"), Err("invalid number"));
    }

    #[test]
    fn hostile_numbers_are_rejected_with_their_line() {
        let hostile = [
            ("NaN", "non-finite number"),
            ("nan", "non-finite number"),
            ("inf", "non-finite number"),
            ("-inf", "non-finite number"),
            ("+infinity", "non-finite number"),
            ("1e400", "non-finite number"),
            ("-1e400", "non-finite number"),
            ("1e308B", "non-finite number"),
            ("12Q", "invalid number"),
        ];
        for (value, reason) in hostile {
            assert_eq!(parse_number(value), Err(reason), "{value}");
            let mut reader = CsvReader::new(schema());
            let text = format!("yahoo,AAPL,Last price,399.20\ngoogle,AAPL,Volume,{value}\n");
            let error = reader.read_snapshot(0, &text).unwrap_err();
            assert_eq!(error.line, 2, "{value}: {error}");
            assert!(error.to_string().contains("line 2"), "{value}: {error}");
            assert_eq!(error.message, format!("{reason} '{value}'"));
        }
        // The largest finite literals still parse.
        assert!(parse_number("1e308").is_ok());
        assert!(parse_number("1.7e299B").is_ok());
    }

    #[test]
    fn time_parsing() {
        assert_eq!(parse_time("18:15"), Some(1095));
        assert_eq!(parse_time("1095"), Some(1095));
        assert_eq!(parse_time("25:00"), None);
        assert_eq!(parse_time("xx"), None);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let mut reader = CsvReader::new(schema());
        let result = reader.read_snapshot(0, "yahoo,AAPL,Last price,399.20\nbad line\n");
        let error = result.unwrap_err();
        assert_eq!(error.line, 2);
        assert!(error.to_string().contains("line 2"));

        let unknown = reader
            .read_snapshot(0, "yahoo,AAPL,Unknown attr,1.0\n")
            .unwrap_err();
        assert!(unknown.message.contains("unknown attribute"));

        let bad_number = reader
            .read_snapshot(0, "yahoo,AAPL,Last price,abc\n")
            .unwrap_err();
        assert!(bad_number.message.contains("invalid number"));
    }

    #[test]
    fn round_trip_through_writer() {
        let mut reader = CsvReader::new(schema());
        let text = "yahoo,AAPL,Last price,399.2\ngoogle,AAPL,Last price,400.1\n";
        let snapshot = reader.read_snapshot(0, text).unwrap();
        let written = write_snapshot(&snapshot);
        let mut second = CsvReader::new(schema());
        let reparsed = second.read_snapshot(0, &written).unwrap();
        assert_eq!(reparsed.num_observations(), snapshot.num_observations());
        assert_eq!(reparsed.num_items(), snapshot.num_items());
    }
}
