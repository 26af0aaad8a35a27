//! CSV persistence with a role-annotated header.
//!
//! Header cells have the form `name:type[role]` where `type` is `catK`
//! (`K >= 1`) or `num` — self-describing enough to round-trip a [`Table`]
//! exactly, while remaining an ordinary CSV any spreadsheet can open.
//!
//! The accepted grammar is what [`to_csv_string`] writes, and no looser:
//! - Lines end in `\n`. A `\r` right before the `\n` is dropped, so CRLF
//!   files read the same. The last line's `\n` is optional.
//! - Empty lines are skipped, but still count in reported line numbers.
//! - There is no quoting or escaping: every `,` separates two cells, and
//!   every row has exactly as many cells as the header.
//! - A `catK` cell is a decimal `u32` below `K`: what `str::parse::<u32>`
//!   accepts (an optional leading `+`; no `-`, whitespace or empty cell).
//! - A `num` cell is what `str::parse::<f64>` accepts, and must be
//!   finite: `NaN`, `inf` and overflowing literals are rejected with the
//!   column name and line number.
//! - The text is UTF-8.

use crate::table::{Column, ColumnData, Role, Table, TableError};
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;

/// Serialize a table to CSV text.
pub fn to_csv_string(table: &Table) -> String {
    let mut out = String::new();
    // Header.
    let header: Vec<String> = table
        .columns()
        .iter()
        .map(|c| {
            let ty = match &c.data {
                ColumnData::Cat { arity, .. } => format!("cat{arity}"),
                ColumnData::Num(_) => "num".to_owned(),
            };
            format!("{}:{}[{}]", c.name, ty, c.role)
        })
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    // Rows.
    for row in 0..table.n_rows() {
        for (i, c) in table.columns().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match &c.data {
                ColumnData::Cat { codes, .. } => {
                    write!(out, "{}", codes[row]).expect("string write");
                }
                ColumnData::Num(v) => {
                    // Full round-trip precision.
                    write!(out, "{:?}", v[row]).expect("string write");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Write a table to a CSV file.
pub fn write_csv(table: &Table, path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_csv_string(table).as_bytes())
}

/// Parse a table from CSV text produced by [`to_csv_string`].
pub fn from_csv_string(text: &str) -> Result<Table, TableError> {
    parse(text.as_bytes())
}

/// Read a table from a CSV file.
pub fn read_csv(path: &Path) -> Result<Table, TableError> {
    let bytes = std::fs::read(path)
        .map_err(|e| TableError::JoinError(format!("io error opening {}: {e}", path.display())))?;
    parse(&bytes)
}

/// The CSV parser: one forward scan over `buf` that cuts each cell in
/// place and pushes its value straight onto its column.
fn parse(buf: &[u8]) -> Result<Table, TableError> {
    if buf.is_empty() {
        return Err(bad("empty csv"));
    }
    let header_end = find_byte(buf, 0, b'\n');
    let header = std::str::from_utf8(strip_cr(buf, 0, header_end))
        .map_err(|_| bad("header is not valid UTF-8"))?;
    let body = buf.get(header_end + 1..).unwrap_or_default();
    // Every data row ends in a newline except possibly the last, so this
    // is the exact row count when no row is blank.
    let rows = count_newlines(body) + usize::from(!body.is_empty() && !body.ends_with(b"\n"));
    let mut columns = parse_header(header, rows)?;
    let ncols = columns.len();

    let mut pos = header_end + 1;
    let mut lineno = 1;
    while pos < buf.len() {
        lineno += 1;
        let row_start = pos;
        if buf[pos] == b'\n' {
            pos += 1;
            continue;
        }
        if buf[pos] == b'\r' && buf.get(pos + 1) == Some(&b'\n') {
            pos += 2;
            continue;
        }
        pos = parse_row(buf, pos, &mut columns, lineno)
            .map_err(|cell_err| row_error(buf, row_start, lineno, ncols, cell_err))?;
    }
    Table::new(columns)
}

/// Parse the row starting at `pos` onto the ends of `columns` and return
/// where the next row starts. `Err(None)` means the row ends before the
/// last column or runs past it; `Err(Some(e))` is a bad cell.
fn parse_row(
    buf: &[u8],
    mut pos: usize,
    columns: &mut [Column],
    lineno: usize,
) -> Result<usize, Option<TableError>> {
    let ncols = columns.len();
    for (c, col) in columns.iter_mut().enumerate() {
        let end = match &mut col.data {
            ColumnData::Cat { arity, codes } => {
                let (v, end) = read_code(buf, pos, *arity)?;
                codes.push(v);
                end
            }
            ColumnData::Num(values) => {
                let end = find_cell_end(buf, pos);
                values.push(parse_f64(strip_cr(buf, pos, end), &col.name, lineno)?);
                end
            }
        };
        // The header's last column ends the row; any other ends a cell.
        if (buf.get(end) != Some(&b',')) != (c + 1 == ncols) {
            return Err(None);
        }
        pos = end + 1;
    }
    Ok(pos)
}

/// Parse the header line into one empty column per cell, each reserved
/// for `rows` values.
fn parse_header(header: &str, rows: usize) -> Result<Vec<Column>, TableError> {
    let mut columns = Vec::new();
    for cell in header.split(',') {
        let (name, rest) = cell
            .split_once(':')
            .ok_or_else(|| bad(&format!("header cell missing type: {cell}")))?;
        let (ty, role) = rest
            .strip_suffix(']')
            .and_then(|r| r.split_once('['))
            .ok_or_else(|| bad(&format!("header cell missing role: {cell}")))?;
        let role = Role::parse(role).ok_or_else(|| bad(&format!("unknown role: {role}")))?;
        let data = if ty == "num" {
            ColumnData::Num(Vec::with_capacity(rows))
        } else if let Some(k) = ty.strip_prefix("cat") {
            let arity = k
                .parse::<u32>()
                .ok()
                .filter(|&k| k >= 1)
                .ok_or_else(|| bad(&format!("bad arity in {cell}")))?;
            ColumnData::Cat {
                codes: Vec::with_capacity(rows),
                arity,
            }
        } else {
            return Err(bad(&format!("unknown type: {ty}")));
        };
        columns.push(Column {
            name: name.to_owned(),
            role,
            data,
        });
    }
    Ok(columns)
}

/// Number of `\n` bytes in `buf`, tallied per chunk in a `u8` that
/// cannot overflow, which the compiler turns into vector code.
fn count_newlines(buf: &[u8]) -> usize {
    buf.chunks(255)
        .map(|c| usize::from(c.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
        .sum()
}

/// Index of the first `byte` at or after `from`, or `buf.len()`.
fn find_byte(buf: &[u8], from: usize, byte: u8) -> usize {
    buf[from..]
        .iter()
        .position(|&b| b == byte)
        .map_or(buf.len(), |i| from + i)
}

/// Index of the `,` or `\n` that ends the cell starting at `from`, or
/// `buf.len()`.
fn find_cell_end(buf: &[u8], from: usize) -> usize {
    buf[from..]
        .iter()
        .position(|&b| b == b',' || b == b'\n')
        .map_or(buf.len(), |i| from + i)
}

/// `buf[start..end]` without the `\r` of a `\r\n` line ending.
fn strip_cr(buf: &[u8], start: usize, end: usize) -> &[u8] {
    let cell = &buf[start..end];
    if buf.get(end) == Some(&b'\n') {
        cell.strip_suffix(b"\r").unwrap_or(cell)
    } else {
        cell
    }
}

/// Read the categorical cell starting at `pos`: its code, and the index
/// where the cell ends. One to nine plain digits running into the cell's
/// end (every cell [`to_csv_string`] writes) are read in the scan that
/// finds the end; any other cell goes through [`parse_code`].
fn read_code(buf: &[u8], pos: usize, arity: u32) -> Result<(u32, usize), TableError> {
    let rest = &buf[pos..];
    let (mut v, mut n) = (0u32, 0);
    while let Some(d) = rest.get(n).filter(|b| b.is_ascii_digit() && n < 9) {
        v = v * 10 + u32::from(d - b'0');
        n += 1;
    }
    if n > 0 && v < arity && matches!(rest.get(n), None | Some(b',' | b'\n')) {
        return Ok((v, pos + n));
    }
    let end = find_cell_end(buf, pos);
    Ok((parse_code(strip_cr(buf, pos, end), arity)?, end))
}

/// A categorical code below `arity`, as `str::parse::<u32>` reads it.
fn parse_code(cell: &[u8], arity: u32) -> Result<u32, TableError> {
    match std::str::from_utf8(cell).map(str::parse::<u32>) {
        Ok(Ok(v)) if v < arity => Ok(v),
        Ok(Ok(v)) => Err(bad(&format!(
            "categorical value {v} out of range for arity {arity}"
        ))),
        _ => Err(bad(&format!(
            "bad categorical value {:?}",
            String::from_utf8_lossy(cell)
        ))),
    }
}

/// A finite `f64` cell of column `name` on line `lineno`.
fn parse_f64(cell: &[u8], name: &str, lineno: usize) -> Result<f64, TableError> {
    let text = || String::from_utf8_lossy(cell);
    match std::str::from_utf8(cell).map(str::parse::<f64>) {
        Ok(Ok(v)) if v.is_finite() => Ok(v),
        Ok(Ok(_)) => Err(bad(&format!(
            "column {name} line {lineno}: non-finite numeric value {:?}",
            text()
        ))),
        _ => Err(bad(&format!("bad numeric value {:?}", text()))),
    }
}

/// The error for a rejected row. A row with the wrong number of cells is
/// reported as ragged whatever else is wrong with it; otherwise the cell
/// error stands.
fn row_error(
    buf: &[u8],
    row_start: usize,
    lineno: usize,
    ncols: usize,
    cell_err: Option<TableError>,
) -> TableError {
    let row_end = find_byte(buf, row_start, b'\n');
    let cells = 1 + buf[row_start..row_end]
        .iter()
        .filter(|&&b| b == b',')
        .count();
    match cell_err {
        Some(e) if cells == ncols => e,
        _ => bad(&format!("row {lineno} has {cells} cells, expected {ncols}")),
    }
}

fn bad(msg: &str) -> TableError {
    TableError::JoinError(format!("csv: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Role;

    fn sample() -> Table {
        Table::new(vec![
            Column::cat("s", Role::Sensitive, vec![0, 1, 1], 2),
            Column::num("x", Role::Feature, vec![1.5, -2.25, 1e-9]),
            Column::cat("y", Role::Target, vec![1, 0, 1], 2),
        ])
        .unwrap()
    }

    #[test]
    fn roundtrip_exact() {
        let t = sample();
        let text = to_csv_string(&t);
        let back = from_csv_string(&text).unwrap();
        assert_eq!(back.n_rows(), 3);
        assert_eq!(back.schema_string(), t.schema_string());
        assert_eq!(
            back.expect_column("x").to_f64(),
            t.expect_column("x").to_f64()
        );
        assert_eq!(
            back.expect_column("s").codes().unwrap(),
            t.expect_column("s").codes().unwrap()
        );
    }

    #[test]
    fn header_format() {
        let text = to_csv_string(&sample());
        let header = text.lines().next().unwrap();
        assert_eq!(header, "s:cat2[sensitive],x:num[feature],y:cat2[target]");
    }

    #[test]
    fn file_roundtrip() {
        let t = sample();
        let dir = std::env::temp_dir().join("fairsel_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_csv(&t, &path).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back.schema_string(), t.schema_string());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_malformed() {
        assert!(from_csv_string("").is_err());
        assert!(from_csv_string("noheader\n1\n").is_err());
        assert!(from_csv_string("a:cat2[feature]\n5\n").is_err()); // code 5 >= arity 2
    }

    #[test]
    fn rejects_ragged_rows() {
        let text = "a:num[feature],b:num[feature]\n1.0,2.0\n3.0\n";
        assert!(from_csv_string(text).is_err());
    }

    /// Edge cases of the grammar: each input is accepted with the given
    /// shape, or rejected with an error containing the given text.
    #[test]
    fn grammar_edge_cases() {
        enum Want {
            /// Rows, then the `x` column's values.
            Rows(usize, &'static [f64]),
            Err(&'static str),
        }
        use Want::{Err as E, Rows};
        let head = b"c:cat3[feature],x:num[target]".as_slice();
        let cases: Vec<(&str, Vec<u8>, Want)> = vec![
            (
                "crlf rows",
                [head, b"\r\n1,0.5\r\n2,-1\r\n"].concat(),
                Rows(2, &[0.5, -1.0]),
            ),
            (
                "blank rows",
                [head, b"\n\n1,2\n\r\n0,3\n\n"].concat(),
                Rows(2, &[2.0, 3.0]),
            ),
            (
                "no final newline",
                [head, b"\n1,2\n0,3"].concat(),
                Rows(2, &[2.0, 3.0]),
            ),
            ("header only", head.to_vec(), Rows(0, &[])),
            ("header and newline", [head, b"\n"].concat(), Rows(0, &[])),
            ("plus code", [head, b"\n+1,7\n"].concat(), Rows(1, &[7.0])),
            (
                "leading zeros",
                [head, b"\n0002,7\n"].concat(),
                Rows(1, &[7.0]),
            ),
            (
                "code 2^32",
                [head, b"\n4294967296,1\n"].concat(),
                E("bad categorical value \"4294967296\""),
            ),
            (
                "code at arity",
                [head, b"\n3,1\n"].concat(),
                E("categorical value 3 out of range for arity 3"),
            ),
            (
                "empty code",
                [head, b"\n,1\n"].concat(),
                E("bad categorical value \"\""),
            ),
            (
                "lone plus",
                [head, b"\n+,1\n"].concat(),
                E("bad categorical value \"+\""),
            ),
            (
                "minus code",
                [head, b"\n-0,1\n"].concat(),
                E("bad categorical value \"-0\""),
            ),
            (
                "space in code",
                [head, b"\n 1,1\n"].concat(),
                E("bad categorical value \" 1\""),
            ),
            (
                "empty number",
                [head, b"\n1,\n"].concat(),
                E("bad numeric value \"\""),
            ),
            (
                "cr before comma",
                [head, b"\n1\r,1\n"].concat(),
                E("bad categorical value \"1\\r\""),
            ),
            (
                "cr at eof",
                [head, b"\n1,1\r"].concat(),
                E("bad numeric value \"1\\r\""),
            ),
            (
                "long row",
                [head, b"\n1,1\n\n1,1,1\n"].concat(),
                E("row 4 has 3 cells, expected 2"),
            ),
            (
                "short row",
                [head, b"\n1,1\n1\n"].concat(),
                E("row 3 has 1 cells, expected 2"),
            ),
            (
                "short crlf row",
                [head, b"\r\n1\r\n"].concat(),
                E("row 2 has 1 cells, expected 2"),
            ),
            (
                "ragged beats bad cell",
                [head, b"\nx,1,1\n"].concat(),
                E("row 2 has 3 cells, expected 2"),
            ),
            (
                "non-utf8 number",
                [head, b"\n1,1\xff\n"].concat(),
                E("bad numeric value"),
            ),
            (
                "non-utf8 code",
                [head, b"\n\xff,1\n"].concat(),
                E("bad categorical value"),
            ),
            (
                "non-utf8 header",
                b"c:cat3[feat\xffure]\n1\n".to_vec(),
                E("header is not valid UTF-8"),
            ),
            ("empty", Vec::new(), E("empty csv")),
            (
                "blank header",
                b"\n1\n".to_vec(),
                E("header cell missing type: "),
            ),
            (
                "arity 0",
                b"c:cat0[feature]\n".to_vec(),
                E("bad arity in c:cat0[feature]"),
            ),
            (
                "unknown type",
                b"c:int[feature]\n".to_vec(),
                E("unknown type: int"),
            ),
            (
                "unknown role",
                b"c:num[label]\n".to_vec(),
                E("unknown role: label"),
            ),
            (
                "no role",
                b"c:num\n".to_vec(),
                E("header cell missing role: c:num"),
            ),
        ];
        for (what, input, want) in cases {
            let got = parse(&input);
            match (want, got) {
                (Rows(rows, xs), Ok(t)) => {
                    assert_eq!(t.n_rows(), rows, "{what}");
                    assert_eq!(t.expect_column("x").to_f64(), xs, "{what}");
                }
                (E(msg), Err(e)) => {
                    let e = e.to_string();
                    assert!(e.contains(msg), "{what}: {e:?} lacks {msg:?}");
                }
                (Rows(..), Err(e)) => panic!("{what}: rejected: {e}"),
                (E(msg), Ok(_)) => panic!("{what}: accepted, wanted {msg:?}"),
            }
        }
    }

    /// `NaN`, infinities and overflowing literals are rejected with the
    /// column name and the line, counting blank lines.
    #[test]
    fn rejects_non_finite_numbers() {
        for cell in ["NaN", "nan", "inf", "-inf", "+infinity", "1e400"] {
            let text = format!("c:cat2[feature],x:num[feature]\n1,0.5\n\n0,{cell}\n");
            let e = from_csv_string(&text).unwrap_err().to_string();
            assert!(
                e.contains(&format!(
                    "column x line 4: non-finite numeric value \"{cell}\""
                )),
                "{cell}: {e}"
            );
        }
    }

    /// Random tables survive `to_csv_string` and back exactly: every code,
    /// and every float down to its bits.
    #[test]
    fn random_tables_roundtrip_bit_exact() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let specials = [
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            0.1 + 0.2,
            1e-300,
            123456789.0,
        ];
        let roles = [
            Role::Sensitive,
            Role::Admissible,
            Role::Feature,
            Role::Target,
            Role::Key,
        ];
        let mut rng = StdRng::seed_from_u64(0x00c5_f11e);
        for _ in 0..200 {
            let rows = rng.gen_range(0..=50);
            let cols: Vec<Column> = (0..rng.gen_range(1..=6))
                .map(|i| {
                    let name = format!("c{i}");
                    let role = roles[rng.gen_range(0..roles.len())];
                    if rng.gen_bool(0.5) {
                        let arity = rng.gen_range(1..=1000u32);
                        let codes = (0..rows).map(|_| rng.gen_range(0..arity)).collect();
                        Column::cat(name, role, codes, arity)
                    } else {
                        let values = (0..rows)
                            .map(|_| match rng.gen_range(0..3) {
                                0 => specials[rng.gen_range(0..specials.len())],
                                1 => rng.gen_range(-1e6..1e6),
                                _ => {
                                    let v = f64::from_bits(rng.gen::<u64>());
                                    if v.is_finite() {
                                        v
                                    } else {
                                        0.5
                                    }
                                }
                            })
                            .collect();
                        Column::num(name, role, values)
                    }
                })
                .collect();
            let t = Table::new(cols).unwrap();
            let back = from_csv_string(&to_csv_string(&t)).unwrap();
            assert_eq!(back.schema_string(), t.schema_string());
            assert_eq!(back.n_rows(), rows);
            for (a, b) in t.columns().iter().zip(back.columns()) {
                assert_eq!(a.role, b.role);
                match (&a.data, &b.data) {
                    (ColumnData::Num(x), ColumnData::Num(y)) => {
                        let xb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                        let yb: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(xb, yb, "column {}", a.name);
                    }
                    _ => assert_eq!(a.data, b.data, "column {}", a.name),
                }
            }
        }
    }

    #[test]
    fn read_csv_accepts_crlf_file() {
        let dir = std::env::temp_dir().join(format!("fairsel_csv_crlf_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crlf.csv");
        std::fs::write(
            &path,
            "s:cat2[sensitive],x:num[feature]\r\n1,2.5\r\n0,-0.0\r\n",
        )
        .unwrap();
        let t = read_csv(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(t.expect_column("s").codes().unwrap(), &[1, 0]);
        let x: Vec<u64> = t
            .expect_column("x")
            .to_f64()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(x, [2.5f64.to_bits(), (-0.0f64).to_bits()]);
        assert!(read_csv(&dir.join("missing.csv")).is_err());
    }

    #[test]
    fn empty_rows_table() {
        let t = Table::new(vec![Column::num("x", Role::Feature, vec![])]).unwrap();
        let back = from_csv_string(&to_csv_string(&t)).unwrap();
        assert_eq!(back.n_rows(), 0);
        assert_eq!(back.n_cols(), 1);
    }
}
