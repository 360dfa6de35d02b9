//! The individual CLI commands.
//!
//! Each command takes the parsed arguments and returns its printable output,
//! so the commands can be tested without spawning the binary.

pub mod build;
pub mod corpus;
pub mod curves;
pub mod dlq;
pub mod index;
pub mod loadgen;
pub mod route;
pub mod search;
pub mod serve;
pub mod tables;
pub mod tune;

/// The two memory lines closing a build command's output: `index heap
/// <MB>`, the heap behind the in-memory index the command built
/// (`heap_bytes`), and `peak rss <MB>`, the process's own resident-set
/// high-water mark — the second left out where the kernel does not report
/// one.
#[must_use]
pub fn memory_lines(index_heap_bytes: u64) -> String {
    let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let peak = dsearch::obs::peak_rss_bytes()
        .map(|bytes| format!("  peak rss {:.1} MB\n", mb(bytes)))
        .unwrap_or_default();
    format!("  index heap {:.1} MB\n{peak}", mb(index_heap_bytes))
}

/// Formats a plain-text table: a header row, a separator and the data rows,
/// with every column padded to its widest cell.
#[must_use]
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let columns = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .take(columns)
            .map(|(i, c)| format!("{c:<width$}", width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_owned()
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    let mut out = String::new();
    out.push_str(&render(&header_cells));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1))));
    out.push('\n');
    for row in rows {
        out.push_str(&render(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_columns_are_aligned() {
        let out = format_table(
            &["name", "value"],
            &[vec!["short".into(), "1".into()], vec!["a much longer name".into(), "2".into()]],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // The value column starts at the same offset in every data row.
        let offset = lines[2].find('1').unwrap();
        assert_eq!(lines[3].find('2').unwrap(), offset);
    }

    #[test]
    fn extra_cells_beyond_the_header_are_ignored() {
        let out = format_table(&["only"], &[vec!["a".into(), "ignored".into()]]);
        assert!(!out.contains("ignored"));
    }
}
