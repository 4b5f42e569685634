//! [`Report`]: what one figure run returns — headed tables of typed rows,
//! labelled values and prose notes — and the one `Display` that prints it.

use std::fmt;

/// One value of a table row.
#[derive(Clone, Debug)]
pub enum Cell {
    /// A label (model name, configuration).
    Text(String),
    /// A number, printed at its column's decimals.
    Num(f64),
}

macro_rules! cell_from {
    ($($t:ty => $v:ident: $e:expr),*) => {$(
        impl From<$t> for Cell {
            fn from($v: $t) -> Self {
                $e
            }
        }
    )*};
}
cell_from!(f64 => v: Cell::Num(v), f32 => v: Cell::Num(v as f64), usize => v: Cell::Num(v as f64),
    u64 => v: Cell::Num(v as f64), &str => s: Cell::Text(s.to_string()), String => s: Cell::Text(s));

/// `cells![a, b, ..]`: a table row, each value converted with `Cell::from`.
#[macro_export]
macro_rules! cells {
    ($($v:expr),* $(,)?) => { vec![$($crate::Cell::from($v)),*] };
}

/// A table: columns of `(header, width, decimals)`, the first left-aligned
/// and every other right-aligned, and one cell per column in each row.
#[derive(Clone, Debug)]
pub struct Table {
    pub columns: Vec<(String, usize, usize)>,
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    pub fn new(columns: &[(&str, usize, usize)]) -> Self {
        let columns = columns.iter().map(|&(name, width, dec)| (name.to_string(), width, dec)).collect();
        Table { columns, rows: Vec::new() }
    }

    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "one cell per column");
        self.rows.push(cells);
    }
}

/// One entry of a [`Report`], printed in order.
#[derive(Clone, Debug)]
pub enum Item {
    /// A `=== title ===` section heading.
    Section(String),
    Table(Table),
    /// `label: value unit`, the value at `decimals` decimals.
    Value { label: String, value: f64, decimals: usize, unit: String },
    /// A line of prose (a caption, the paper's expected shape): no number a
    /// check reads.
    Note(String),
}

/// The result of one table or figure run: its title and items in print
/// order.
#[derive(Clone, Debug)]
pub struct Report {
    pub title: String,
    pub items: Vec<Item>,
}

impl Report {
    pub fn new(title: &str) -> Self {
        Report { title: title.to_string(), items: Vec::new() }
    }

    pub fn section(&mut self, title: impl Into<String>) {
        self.items.push(Item::Section(title.into()));
    }

    pub fn table(&mut self, table: Table) {
        self.items.push(Item::Table(table));
    }

    pub fn value(&mut self, label: impl Into<String>, value: impl Into<Cell>, decimals: usize, unit: &str) {
        let Cell::Num(value) = value.into() else { panic!("a value is a number") };
        self.items.push(Item::Value { label: label.into(), value, decimals, unit: unit.to_string() });
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.items.push(Item::Note(text.into()));
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.title)?;
        for item in &self.items {
            match item {
                Item::Section(title) => writeln!(f, "\n=== {title} ===")?,
                Item::Table(t) => {
                    let heads = t.columns.iter().map(|(name, ..)| Cell::Text(name.clone())).collect();
                    for row in std::iter::once(&heads).chain(&t.rows) {
                        for (i, (cell, &(_, w, p))) in row.iter().zip(&t.columns).enumerate() {
                            let s = match cell {
                                Cell::Text(s) => s.clone(),
                                Cell::Num(v) => format!("{v:.p$}"),
                            };
                            if i == 0 {
                                write!(f, "{s:<w$}")?
                            } else {
                                write!(f, "{s:>w$}")?
                            }
                        }
                        writeln!(f)?;
                    }
                }
                Item::Value { label, value, decimals: p, unit } => {
                    writeln!(f, "{}", format!("{label}: {value:.p$} {unit}").trim_end())?
                }
                Item::Note(text) => writeln!(f, "{text}")?,
            }
        }
        Ok(())
    }
}
