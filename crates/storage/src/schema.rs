//! Table schemas and rows.

use crate::error::StorageError;
use crate::value::Value;
use crate::Result;

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueType {
    /// 64-bit integer.
    Int,
    /// Total-ordered float.
    Float,
    /// String.
    Str,
    /// Date (days since epoch).
    Date,
}

impl ValueType {
    /// Whether a concrete [`Value`] conforms to this type (NULL conforms to
    /// every type).
    pub fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ValueType::Int, Value::Int(_))
                | (ValueType::Float, Value::Float(_))
                | (ValueType::Str, Value::Str(_))
                | (ValueType::Date, Value::Date(_))
        )
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (unique within a schema).
    pub name: String,
    /// Declared type.
    pub ty: ValueType,
}

impl Column {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Column { name: name.into(), ty }
    }
}

/// A tuple: one value per schema column.
pub type Row = Vec<Value>;

/// An ordered list of columns describing a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics if two columns share a name; schemas are static in this
    /// reproduction, so a duplicate is a programming error.
    pub fn new(cols: Vec<Column>) -> Self {
        for (i, a) in cols.iter().enumerate() {
            for b in &cols[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate column name {:?}", a.name);
            }
        }
        Schema { columns: cols }
    }

    /// The columns, in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Resolve a column name to its index.
    pub fn col_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| StorageError::UnknownColumn { name: name.to_string() })
    }

    /// Name of a column by index.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn col_name(&self, idx: usize) -> &str {
        &self.columns[idx].name
    }

    /// Check that a row matches this schema (arity and types).
    pub fn validate(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(StorageError::SchemaMismatch {
                detail: format!("arity {} != {}", row.len(), self.columns.len()),
            });
        }
        for (col, v) in self.columns.iter().zip(row) {
            if !col.ty.admits(v) {
                return Err(StorageError::SchemaMismatch {
                    detail: format!("column {:?} does not admit {v:?}", col.name),
                });
            }
        }
        Ok(())
    }

    /// Approximate bytes per row under this schema given a sample row,
    /// used to derive `tups_per_page` for the cost model.
    pub fn row_bytes(&self, row: &Row) -> usize {
        // Per-tuple header comparable to PostgreSQL's ~23-byte overhead.
        23 + row.iter().map(Value::size_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", ValueType::Int),
            Column::new("city", ValueType::Str),
            Column::new("salary", ValueType::Float),
            Column::new("hired", ValueType::Date),
        ])
    }

    #[test]
    fn col_index_resolves_names() {
        let s = demo_schema();
        assert_eq!(s.col_index("city").unwrap(), 1);
        assert_eq!(s.col_index("hired").unwrap(), 3);
        assert!(matches!(
            s.col_index("zip"),
            Err(StorageError::UnknownColumn { .. })
        ));
        assert_eq!(s.col_name(2), "salary");
        assert_eq!(s.arity(), 4);
    }

    #[test]
    fn validate_accepts_conforming_rows() {
        let s = demo_schema();
        let row = vec![
            Value::Int(1),
            Value::str("Boston"),
            Value::float(95_000.0),
            Value::Date(19000),
        ];
        assert!(s.validate(&row).is_ok());
    }

    #[test]
    fn validate_accepts_nulls_anywhere() {
        let s = demo_schema();
        let row = vec![Value::Null, Value::Null, Value::Null, Value::Null];
        assert!(s.validate(&row).is_ok());
    }

    #[test]
    fn validate_rejects_bad_arity_and_types() {
        let s = demo_schema();
        assert!(s.validate(&[Value::Int(1)]).is_err());
        let row = vec![
            Value::str("oops"),
            Value::str("Boston"),
            Value::float(1.0),
            Value::Date(0),
        ];
        assert!(s.validate(&row).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_columns_panic() {
        Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::new("a", ValueType::Int),
        ]);
    }

    #[test]
    fn row_bytes_includes_header() {
        let s = demo_schema();
        let row = vec![
            Value::Int(1),
            Value::str("Boston"),
            Value::float(1.0),
            Value::Date(0),
        ];
        // 23 header + 8 + 7 + 8 + 4
        assert_eq!(s.row_bytes(&row), 23 + 8 + 7 + 8 + 4);
    }
}
