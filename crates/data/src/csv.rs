//! Minimal CSV reading and writing for point clouds.
//!
//! The real UCI data sets the paper uses are distributed as comma-separated
//! numeric files.  This module lets users swap our simulated surrogates for
//! the genuine files: every row becomes one point, non-numeric trailing
//! columns (such as the KDD Cup class label) can be skipped, and the loader
//! validates that all rows share one dimension.
//!
//! # Loading contract
//!
//! [`load_coords`] reads a file straight into one row-major `Vec<f64>`;
//! [`load_points`] and [`parse_points`] wrap the same parser and then build
//! one [`Point`] per row.  The parser itself allocates nothing per row or
//! per field.
//!
//! * **Row ownership.** The data region (everything after the header
//!   lines) is cut into up to `threads` byte ranges of at least 1 MiB each,
//!   and each cut is moved forward to the next line start.  A row therefore
//!   belongs to the range that holds its first byte, and each range is
//!   parsed by its own worker, which streams it in blocks of about 1 MiB.
//! * **Values.** Every field goes through `str::trim` and
//!   `str::parse::<f64>`, so the coordinates are bit-identical at any
//!   thread count.  A leading UTF-8 byte-order mark is skipped.
//! * **Error precedence.** Each worker stops at its first error, and the
//!   ranges are joined in file order, so the error reported is the first
//!   one in file order — the one a sequential read would hit.  Line numbers
//!   are 1-based over the whole file, header lines included.
//! * **Memory.** Beyond the output (which may hold up to twice its final
//!   size while the per-range vectors grow), each worker holds one block
//!   buffer, grown only to fit a line longer than a block.
//! * **Thread count.** The rows, their order and every error are the same
//!   for every thread count; small inputs stay on the calling thread.

use kcenter_metric::Point;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Bytes a worker reads from its range at a time.
const BLOCK_BYTES: usize = 1 << 20;

/// Inputs with fewer data bytes than this per thread use fewer threads;
/// below twice this size they are parsed on the calling thread.
const MIN_RANGE_BYTES: u64 = 1 << 20;

/// Options controlling how a CSV file is interpreted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvOptions {
    /// Skip this many header lines before parsing data rows.
    pub skip_header_lines: usize,
    /// Ignore this many trailing columns (e.g. a class label).
    pub skip_trailing_columns: usize,
    /// Silently drop columns that fail to parse as numbers instead of
    /// raising an error (useful for mixed categorical/numeric files).
    pub drop_non_numeric_columns: bool,
    /// Field delimiter, a comma by default.
    pub delimiter: char,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            skip_header_lines: 0,
            skip_trailing_columns: 0,
            drop_non_numeric_columns: false,
            delimiter: ',',
        }
    }
}

/// Errors raised while loading points from CSV input.
#[derive(Debug)]
pub enum CsvError {
    /// An I/O error occurred.
    Io(std::io::Error),
    /// A field could not be parsed as a finite number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// 0-based column index.
        column: usize,
        /// The offending field text.
        field: String,
    },
    /// A row had a different number of usable columns from earlier rows.
    InconsistentDimension {
        /// 1-based line number.
        line: usize,
        /// Number of columns found.
        found: usize,
        /// Number of columns expected.
        expected: usize,
    },
    /// No data rows were found.
    Empty,
}

impl CsvError {
    /// Moves a range-local line number to its place in the whole file.
    fn shifted(mut self, lines_before: usize) -> Self {
        if let CsvError::Parse { line, .. } | CsvError::InconsistentDimension { line, .. } =
            &mut self
        {
            *line += lines_before;
        }
        self
    }
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::Parse {
                line,
                column,
                field,
            } => {
                write!(
                    f,
                    "line {line}, column {column}: cannot parse {field:?} as a finite number"
                )
            }
            CsvError::InconsistentDimension {
                line,
                found,
                expected,
            } => {
                write!(f, "line {line}: found {found} columns, expected {expected}")
            }
            CsvError::Empty => write!(f, "no data rows found"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// The rows of one byte range, parsed: their coordinates, the range's line
/// count, and the first error met, with line numbers local to the range.
struct Span<'a> {
    options: &'a CsvOptions,
    coords: Vec<f64>,
    /// Row dimension, 0 until the first row.
    dim: usize,
    /// Local line number of the first row (valid once `dim > 0`).
    first_row_line: usize,
    /// Lines seen so far, header lines included.
    lines: usize,
    header_left: usize,
    /// Whether the range starts at the first byte of the file.
    at_file_start: bool,
    error: Option<CsvError>,
}

impl<'a> Span<'a> {
    fn new(at_file_start: bool, options: &'a CsvOptions) -> Self {
        Self {
            options,
            coords: Vec::new(),
            dim: 0,
            first_row_line: 0,
            lines: 0,
            header_left: if at_file_start {
                options.skip_header_lines
            } else {
                0
            },
            at_file_start,
            error: None,
        }
    }

    /// Records the range's first error; returns `false` so callers stop.
    fn fail(&mut self, error: CsvError) -> bool {
        self.error = Some(error);
        false
    }

    /// Parses every line `src` yields, reading `block` bytes at a time and
    /// handing only complete lines to the parser.
    fn read<R: Read>(&mut self, mut src: R, block: usize) {
        let mut buf = vec![0u8; block.max(1)];
        let mut filled = 0;
        loop {
            if filled == buf.len() {
                buf.resize(2 * filled, 0);
            }
            let read = match src.read(&mut buf[filled..]) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.fail(CsvError::Io(e));
                    return;
                }
            };
            let scanned = filled;
            filled += read;
            // Complete lines end at the last newline; at end of input the
            // remainder is the final line.  Bytes carried over from the
            // last block hold no newline, so only the new ones are scanned.
            let end = if read == 0 {
                filled
            } else {
                match buf[scanned..filled].iter().rposition(|&b| b == b'\n') {
                    Some(i) => scanned + i + 1,
                    None => continue,
                }
            };
            if !self.complete_lines(&buf[..end]) || read == 0 {
                return;
            }
            buf.copy_within(end..filled, 0);
            filled -= end;
        }
    }

    /// Parses a run of whole lines; returns `false` once an error is met.
    fn complete_lines(&mut self, bytes: &[u8]) -> bool {
        match std::str::from_utf8(bytes) {
            Ok(text) => {
                for line in text.split_inclusive('\n') {
                    if !self.line(line.strip_suffix('\n').unwrap_or(line)) {
                        return false;
                    }
                }
                true
            }
            Err(e) => {
                // The lines before the one holding the bad byte come first
                // in file order, and so do their errors.
                let valid = &bytes[..e.valid_up_to()];
                let cut = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                self.complete_lines(&bytes[..cut])
                    && self.fail(CsvError::Io(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8",
                    )))
            }
        }
    }

    /// Parses one line (without its newline) into `coords`.
    fn line(&mut self, line: &str) -> bool {
        self.lines += 1;
        if self.header_left > 0 {
            self.header_left -= 1;
            return true;
        }
        let line = match line.strip_prefix('\u{feff}') {
            Some(rest) if self.at_file_start && self.lines == 1 => rest,
            _ => line,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return true;
        }
        let options = self.options;
        let fields = if options.skip_trailing_columns == 0 {
            usize::MAX
        } else {
            trimmed.split(options.delimiter).count()
        };
        let usable = fields.saturating_sub(options.skip_trailing_columns);
        let row_start = self.coords.len();
        for (column, field) in trimmed.split(options.delimiter).take(usable).enumerate() {
            match field.trim().parse::<f64>() {
                Ok(v) if v.is_finite() => self.coords.push(v),
                _ if options.drop_non_numeric_columns => {}
                _ => {
                    return self.fail(CsvError::Parse {
                        line: self.lines,
                        column,
                        field: field.to_string(),
                    })
                }
            }
        }
        let found = self.coords.len() - row_start;
        if found == 0 {
            return true;
        }
        if self.dim == 0 {
            self.dim = found;
            self.first_row_line = self.lines;
        } else if found != self.dim {
            return self.fail(CsvError::InconsistentDimension {
                line: self.lines,
                found,
                expected: self.dim,
            });
        }
        true
    }
}

/// Joins the ranges' rows in file order, reporting the first error in file
/// order: a range's own error, or its first row disagreeing with the
/// dimension of the rows before it.
fn merge(mut spans: Vec<Span<'_>>) -> Result<(Vec<f64>, usize), CsvError> {
    let mut dim = 0;
    let mut lines_before = 0;
    let mut total = 0;
    for span in &mut spans {
        if dim == 0 {
            dim = span.dim;
        } else if span.dim != 0 && span.dim != dim {
            return Err(CsvError::InconsistentDimension {
                line: lines_before + span.first_row_line,
                found: span.dim,
                expected: dim,
            });
        }
        if let Some(error) = span.error.take() {
            return Err(error.shifted(lines_before));
        }
        lines_before += span.lines;
        total += span.coords.len();
    }
    if total == 0 {
        return Err(CsvError::Empty);
    }
    let mut spans = spans.into_iter().map(|s| s.coords);
    let mut coords = spans.next().unwrap_or_default();
    coords.reserve_exact(total - coords.len());
    for rest in spans {
        coords.extend_from_slice(&rest);
    }
    Ok((coords, dim))
}

/// The byte offsets where the ranges start, then the file length.  The
/// first range starts at 0 and holds the header lines; every other start
/// is a line start inside the data region.
fn range_bounds(
    file: File,
    len: u64,
    skip_header_lines: usize,
    threads: usize,
    min_range: u64,
) -> io::Result<Vec<u64>> {
    let mut reader = BufReader::new(file);
    let mut data_start = 0;
    for _ in 0..skip_header_lines {
        data_start += reader.skip_until(b'\n')? as u64;
    }
    let data = len.saturating_sub(data_start);
    let ranges = (data / min_range).clamp(1, threads as u64);
    let mut bounds = vec![0];
    let mut prev = 0;
    for i in 1..ranges {
        let cut = data_start + data / ranges * i;
        reader.seek(SeekFrom::Start(cut - 1))?;
        let start = cut - 1 + reader.skip_until(b'\n')? as u64;
        prev = start.max(prev);
        bounds.push(prev);
    }
    bounds.push(len);
    Ok(bounds)
}

fn load_with(
    path: &Path,
    options: &CsvOptions,
    threads: usize,
    block: usize,
    min_range: u64,
) -> Result<(Vec<f64>, usize), CsvError> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let threads = threads.max(1);
    let min_range = min_range.max(1);
    // Pipes and other special files report length 0 and stay sequential.
    if threads == 1 || len / min_range < 2 {
        let mut span = Span::new(true, options);
        span.read(file, block);
        return merge(vec![span]);
    }
    let bounds = range_bounds(file, len, options.skip_header_lines, threads, min_range)?;
    let ranges: Vec<(u64, u64)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
    let spans = rayon::parallel_map_with_threads(ranges, threads, |(start, end)| {
        // Only the first range starts at byte 0: every other starts after
        // a newline.
        let mut span = Span::new(start == 0, options);
        match File::open(path).and_then(|mut f| f.seek(SeekFrom::Start(start)).map(|_| f)) {
            Ok(f) => span.read(f.take(end - start), block),
            Err(e) => {
                span.fail(CsvError::Io(e));
            }
        }
        span
    });
    merge(spans)
}

/// Loads a CSV file as row-major coordinates and their row dimension,
/// parsing up to `threads` byte ranges of the file in parallel (see the
/// module docs for the contract).  The result is the same for every
/// `threads`.
pub fn load_coords<P: AsRef<Path>>(
    path: P,
    options: &CsvOptions,
    threads: usize,
) -> Result<(Vec<f64>, usize), CsvError> {
    load_with(
        path.as_ref(),
        options,
        threads,
        BLOCK_BYTES,
        MIN_RANGE_BYTES,
    )
}

fn into_points(coords: &[f64], dim: usize) -> Vec<Point> {
    coords
        .chunks_exact(dim)
        .map(|row| Point::new(row.to_vec()))
        .collect()
}

/// Parses points from any reader using the given options (one range, on
/// the calling thread).
pub fn parse_points<R: Read>(reader: R, options: &CsvOptions) -> Result<Vec<Point>, CsvError> {
    let mut span = Span::new(true, options);
    span.read(reader, BLOCK_BYTES);
    let (coords, dim) = merge(vec![span])?;
    Ok(into_points(&coords, dim))
}

/// Loads points from a CSV file on disk, parsing with the current thread
/// budget ([`rayon::current_num_threads`]).
pub fn load_points<P: AsRef<Path>>(path: P, options: &CsvOptions) -> Result<Vec<Point>, CsvError> {
    let (coords, dim) = load_coords(path, options, rayon::current_num_threads())?;
    Ok(into_points(&coords, dim))
}

/// Writes points to a writer as plain CSV (one row per point).
pub fn write_points<W: Write>(writer: W, points: &[Point]) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    for p in points {
        for (i, c) in p.coords().iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            write!(w, "{c}")?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// Writes points to a CSV file on disk.
pub fn save_points<P: AsRef<Path>>(path: P, points: &[Point]) -> std::io::Result<()> {
    write_points(File::create(path)?, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_rows() {
        let data = "1.0,2.0\n3.5,-4.25\n";
        let pts = parse_points(data.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(pts, vec![Point::xy(1.0, 2.0), Point::xy(3.5, -4.25)]);
    }

    #[test]
    fn parse_skips_header_and_blank_lines() {
        let data = "x,y\n\n1,2\n\n3,4\n";
        let opts = CsvOptions {
            skip_header_lines: 1,
            ..Default::default()
        };
        let pts = parse_points(data.as_bytes(), &opts).unwrap();
        assert_eq!(pts.len(), 2);
    }

    #[test]
    fn parse_skips_trailing_label_column() {
        let data = "1,2,normal\n3,4,attack\n";
        let opts = CsvOptions {
            skip_trailing_columns: 1,
            ..Default::default()
        };
        let pts = parse_points(data.as_bytes(), &opts).unwrap();
        assert_eq!(pts, vec![Point::xy(1.0, 2.0), Point::xy(3.0, 4.0)]);
    }

    #[test]
    fn parse_can_drop_non_numeric_columns() {
        let data = "tcp,1,2\nudp,3,4\n";
        let opts = CsvOptions {
            drop_non_numeric_columns: true,
            ..Default::default()
        };
        let pts = parse_points(data.as_bytes(), &opts).unwrap();
        assert_eq!(pts, vec![Point::xy(1.0, 2.0), Point::xy(3.0, 4.0)]);
    }

    #[test]
    fn parse_reports_bad_field() {
        let err = parse_points("1,abc\n".as_bytes(), &CsvOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            CsvError::Parse {
                line: 1,
                column: 1,
                ..
            }
        ));
        assert!(err.to_string().contains("abc"));
    }

    #[test]
    fn parse_reports_inconsistent_dimension() {
        let err = parse_points("1,2\n1,2,3\n".as_bytes(), &CsvOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            CsvError::InconsistentDimension {
                line: 2,
                found: 3,
                expected: 2
            }
        ));
    }

    #[test]
    fn parse_reports_empty_input() {
        let err = parse_points("".as_bytes(), &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::Empty));
    }

    #[test]
    fn parse_supports_alternative_delimiters() {
        let opts = CsvOptions {
            delimiter: ';',
            ..Default::default()
        };
        let pts = parse_points("1;2\n3;4\n".as_bytes(), &opts).unwrap();
        assert_eq!(pts.len(), 2);
    }

    #[test]
    fn write_then_parse_round_trips() {
        let pts = vec![Point::xyz(1.0, 2.5, -3.0), Point::xyz(0.0, 0.125, 7.0)];
        let mut buf = Vec::new();
        write_points(&mut buf, &pts).unwrap();
        let parsed = parse_points(buf.as_slice(), &CsvOptions::default()).unwrap();
        assert_eq!(parsed, pts);
    }

    #[test]
    fn save_and_load_round_trips_via_disk() {
        let dir = std::env::temp_dir().join("kcenter-data-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("points.csv");
        let pts = vec![Point::xy(1.0, 2.0), Point::xy(3.0, 4.0)];
        save_points(&path, &pts).unwrap();
        let loaded = load_points(&path, &CsvOptions::default()).unwrap();
        assert_eq!(loaded, pts);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_reports_missing_file() {
        let err = load_points(
            "/nonexistent/definitely/missing.csv",
            &CsvOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CsvError::Io(_)));
    }

    /// The sequential `BufRead::lines()` loader this module used to ship,
    /// kept as the reference the range parser must agree with.
    fn oracle_parse_points<R: Read>(
        reader: R,
        options: &CsvOptions,
    ) -> Result<Vec<Point>, CsvError> {
        let reader = BufReader::new(reader);
        let mut points = Vec::new();
        let mut expected_dim: Option<usize> = None;
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            if idx < options.skip_header_lines {
                continue;
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let fields: Vec<&str> = trimmed.split(options.delimiter).collect();
            let usable = fields.len().saturating_sub(options.skip_trailing_columns);
            let mut coords = Vec::with_capacity(usable);
            for (col, field) in fields[..usable].iter().enumerate() {
                match field.trim().parse::<f64>() {
                    Ok(v) if v.is_finite() => coords.push(v),
                    _ if options.drop_non_numeric_columns => continue,
                    _ => {
                        return Err(CsvError::Parse {
                            line: idx + 1,
                            column: col,
                            field: field.to_string(),
                        })
                    }
                }
            }
            if coords.is_empty() {
                continue;
            }
            match expected_dim {
                None => expected_dim = Some(coords.len()),
                Some(d) if d != coords.len() => {
                    return Err(CsvError::InconsistentDimension {
                        line: idx + 1,
                        found: coords.len(),
                        expected: d,
                    })
                }
                _ => {}
            }
            points.push(Point::new(coords));
        }
        if points.is_empty() {
            return Err(CsvError::Empty);
        }
        Ok(points)
    }

    /// Bit patterns and dimension of a load, or its error message.
    type Outcome = Result<(Vec<u64>, usize), String>;

    fn outcome(r: Result<(Vec<f64>, usize), CsvError>) -> Outcome {
        r.map(|(coords, dim)| (coords.iter().map(|c| c.to_bits()).collect(), dim))
            .map_err(|e| e.to_string())
    }

    fn oracle(bytes: &[u8], options: &CsvOptions) -> Outcome {
        let bytes = bytes.strip_prefix("\u{feff}".as_bytes()).unwrap_or(bytes);
        outcome(oracle_parse_points(bytes, options).map(|points| {
            let dim = points[0].dim();
            (
                points.iter().flat_map(|p| p.coords().to_vec()).collect(),
                dim,
            )
        }))
    }

    fn parse_bytes(bytes: &[u8], options: &CsvOptions, block: usize) -> Outcome {
        let mut span = Span::new(true, options);
        span.read(bytes, block);
        outcome(merge(vec![span]))
    }

    /// A per-test file under the temp dir (tests run on parallel threads).
    fn test_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("kcenter-data-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-{name}.csv", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    fn pick<'a, T>(rng: &mut proptest::TestRng, items: &'a [T]) -> &'a T {
        &items[rng.below(items.len() as u64) as usize]
    }

    /// A stray byte, a truncated two-byte and a truncated three-byte
    /// sequence.
    const BAD_UTF8: [&[u8]; 3] = [&[0xFF], &[0xC3], &[0xE2, 0x82]];

    fn random_number(rng: &mut proptest::TestRng) -> String {
        match rng.below(5) {
            0 => format!("{}", rng.below(1000) as i64 - 500),
            1 => format!("{}", (rng.unit_f64() - 0.5) * 1e3),
            2 => format!("{:e}", (rng.unit_f64() - 0.5) * 1e-3),
            3 => format!("{:.3}", rng.unit_f64() * 10.0),
            _ => format!("+{}.{}", rng.below(100), rng.below(100)),
        }
    }

    /// A random CSV file and the options to read it with.  It mixes an
    /// optional BOM, header lines, blank and whitespace-only lines, CRLF,
    /// Unicode padding, trailing labels, categorical columns, a non-ASCII
    /// delimiter and, in half the files, one or two faults: an unparsable
    /// field, invalid UTF-8 or a row of another dimension.
    fn random_csv(rng: &mut proptest::TestRng) -> (Vec<u8>, CsvOptions) {
        let options = CsvOptions {
            skip_header_lines: rng.below(3) as usize,
            skip_trailing_columns: rng.below(3) as usize,
            drop_non_numeric_columns: rng.below(3) == 0,
            delimiter: *pick(rng, &[',', ';', '§']),
        };
        let delimiter = options.delimiter.to_string();
        let rows = rng.below(40) as usize;
        let dim = 1 + rng.below(3) as usize;
        let faults = if rng.below(2) == 0 {
            0
        } else {
            1 + rng.below(2)
        };
        let fault_rows: Vec<(usize, u64)> = (0..faults)
            .map(|_| (rng.below(rows as u64 + 1) as usize, rng.below(3)))
            .collect();

        let mut out = Vec::new();
        if rng.below(4) == 0 {
            out.extend_from_slice("\u{feff}".as_bytes());
        }
        for _ in 0..options.skip_header_lines {
            out.extend_from_slice(format!("x{delimiter}y{delimiter}label").as_bytes());
            out.extend_from_slice(pick(rng, &["\n", "\r\n"]).as_bytes());
        }
        for row in 0..rows {
            let mut line: Vec<u8> = Vec::new();
            match rng.below(12) {
                0 => {}
                1 => line.extend_from_slice(" \t\u{3000}".as_bytes()),
                _ => {
                    let mut fields: Vec<String> = Vec::new();
                    let mut width = dim;
                    for &(at, kind) in &fault_rows {
                        if at == row && kind == 2 {
                            width += 1;
                        }
                    }
                    for _ in 0..width {
                        let pad = *pick(rng, &["", " ", "\t", "\u{a0}", "\u{2003}"]);
                        fields.push(format!("{pad}{}{pad}", random_number(rng)));
                    }
                    if options.drop_non_numeric_columns && rng.below(2) == 0 {
                        let at = rng.below(fields.len() as u64 + 1) as usize;
                        fields.insert(at, "tcp".to_string());
                    }
                    for _ in 0..options.skip_trailing_columns {
                        fields.push(pick(rng, &["normal.", "attack", "7", ""]).to_string());
                    }
                    for &(at, kind) in &fault_rows {
                        if at == row && kind == 0 {
                            let i = rng.below(fields.len() as u64) as usize;
                            fields[i] =
                                pick(rng, &["abc", "nan", "inf", "", "1e999", "0x10"]).to_string();
                        }
                    }
                    line.extend_from_slice(fields.join(&delimiter).as_bytes());
                    for &(at, kind) in &fault_rows {
                        if at == row && kind == 1 {
                            let i = rng.below(line.len() as u64 + 1) as usize;
                            let bad = pick(rng, &BAD_UTF8);
                            line.splice(i..i, bad.iter().copied());
                        }
                    }
                }
            }
            out.extend_from_slice(&line);
            if row + 1 < rows || rng.below(4) != 0 {
                out.extend_from_slice(pick(rng, &["\n", "\r\n"]).as_bytes());
            }
        }
        (out, options)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The range parser agrees with the sequential reader bit for bit
        /// (or on the error message) for every block size, thread count
        /// and range size, so range and block boundaries land mid-row, on
        /// newlines and inside header lines.
        #[test]
        fn range_parser_matches_the_line_reader(seed in proptest::any::<u64>()) {
            let mut rng = proptest::TestRng::seeded(seed);
            let (bytes, options) = random_csv(&mut rng);
            let expected = oracle(&bytes, &options);
            for block in [1, 2, 5, BLOCK_BYTES] {
                proptest::prop_assert_eq!(parse_bytes(&bytes, &options, block), expected.clone());
            }
            let path = test_file("differential", &bytes);
            for threads in 1..=4 {
                for block in [1, 3, 64] {
                    for min_range in [1, 5, 16] {
                        let got = outcome(load_with(&path, &options, threads, block, min_range));
                        proptest::prop_assert_eq!(
                            got,
                            expected.clone(),
                            "threads {} block {} min_range {}",
                            threads,
                            block,
                            min_range
                        );
                    }
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn leading_byte_order_mark_is_skipped() {
        let data = "\u{feff}1,2\n3,4\n";
        let pts = parse_points(data.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(pts, vec![Point::xy(1.0, 2.0), Point::xy(3.0, 4.0)]);
        // The line reader kept U+FEFF in the first field.
        let old = oracle_parse_points(data.as_bytes(), &CsvOptions::default()).unwrap_err();
        assert!(matches!(
            old,
            CsvError::Parse {
                line: 1,
                column: 0,
                ..
            }
        ));
        let path = test_file("bom", data.as_bytes());
        for threads in 1..=3 {
            let (coords, dim) = load_with(&path, &CsvOptions::default(), threads, 2, 1).unwrap();
            assert_eq!((coords, dim), (vec![1.0, 2.0, 3.0, 4.0], 2));
        }
        std::fs::remove_file(&path).ok();
        // Only the first line of the file may carry one.
        let err = parse_points("1,2\n\u{feff}3,4\n".as_bytes(), &CsvOptions::default());
        assert!(matches!(
            err,
            Err(CsvError::Parse {
                line: 2,
                column: 0,
                ..
            })
        ));
    }

    #[test]
    fn first_error_in_file_order_wins_across_ranges() {
        let rows = |bad_early: &str, bad_late: &str| {
            let mut text = String::new();
            for i in 1..=100 {
                text.push_str(match i {
                    5 => bad_early,
                    90 => bad_late,
                    _ => "1,2",
                });
                text.push('\n');
            }
            text
        };
        let parse_then_dim = rows("1,x", "1,2,3");
        let dim_then_parse = rows("1,2,3", "1,x");
        let first = test_file("first-error-a", parse_then_dim.as_bytes());
        let second = test_file("first-error-b", dim_then_parse.as_bytes());
        for threads in 1..=4 {
            let err = load_with(&first, &CsvOptions::default(), threads, 8, 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    CsvError::Parse {
                        line: 5,
                        column: 1,
                        ..
                    }
                ),
                "{err}"
            );
            let err = load_with(&second, &CsvOptions::default(), threads, 8, 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    CsvError::InconsistentDimension {
                        line: 5,
                        found: 3,
                        expected: 2
                    }
                ),
                "{err}"
            );
        }
        std::fs::remove_file(&first).ok();
        std::fs::remove_file(&second).ok();
    }

    #[test]
    fn dimension_change_is_found_on_either_side_of_a_range_cut() {
        let text = format!("{}{}", "1,2\n".repeat(20), "1,2,3\n".repeat(20));
        let path = test_file("dimension-cut", text.as_bytes());
        // Every range size from one byte to half the file moves the cut
        // across every row, the first 3-column row included.
        for min_range in 1..=text.len() as u64 / 2 {
            for threads in 2..=4 {
                let err = load_with(&path, &CsvOptions::default(), threads, 16, min_range);
                assert!(
                    matches!(
                        err,
                        Err(CsvError::InconsistentDimension {
                            line: 21,
                            found: 3,
                            expected: 2
                        })
                    ),
                    "threads {threads} min_range {min_range}: {err:?}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multi_mebibyte_file_loads_identically_at_every_thread_count() {
        let mut rng = proptest::TestRng::seeded(7);
        let points: Vec<Point> = (0..120_000)
            .map(|_| Point::xyz(rng.unit_f64(), rng.unit_f64() * 1e3, -rng.unit_f64()))
            .collect();
        let mut bytes = Vec::new();
        write_points(&mut bytes, &points).unwrap();
        assert!(bytes.len() as u64 > 2 * MIN_RANGE_BYTES);
        let path = test_file("multi-mib", &bytes);
        let expected = oracle(&bytes, &CsvOptions::default());
        for threads in 1..=3 {
            let got = outcome(load_coords(&path, &CsvOptions::default(), threads));
            assert_eq!(got, expected, "threads {threads}");
        }
        assert_eq!(load_points(&path, &CsvOptions::default()).unwrap(), points);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_points_matches_the_joined_row_format() {
        let pts = vec![
            Point::xyz(1e-7, 1e21, -0.0),
            Point::xyz(0.1 + 0.2, f64::MAX, f64::MIN_POSITIVE),
            Point::new(vec![-3.5]),
        ];
        let mut expected = String::new();
        for p in &pts {
            let row: Vec<String> = p.coords().iter().map(|c| format!("{c}")).collect();
            expected.push_str(&row.join(","));
            expected.push('\n');
        }
        let mut buf = Vec::new();
        write_points(&mut buf, &pts).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), expected);
    }
}
