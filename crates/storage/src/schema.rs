//! Table schemas and join-relation metadata.

/// How an attribute is used by the benchmark. Primary/foreign keys are join
/// columns (never filtered in the paper's workloads); `Categorical` and
/// `Numeric` attributes are the "n./c." filter attributes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnKind {
    /// Table primary key.
    PrimaryKey,
    /// Foreign key referencing another table's primary key (or joined
    /// FK-to-FK in many-to-many templates).
    ForeignKey,
    /// Dictionary-encoded categorical attribute.
    Categorical,
    /// Integer-domain numeric attribute (e.g. scores, counts, timestamps).
    Numeric,
}

impl ColumnKind {
    /// True for the filterable n./c. attributes counted in paper Table 1.
    pub fn is_filterable(self) -> bool {
        matches!(self, ColumnKind::Categorical | ColumnKind::Numeric)
    }

    /// True for key columns that participate in joins.
    pub fn is_key(self) -> bool {
        matches!(self, ColumnKind::PrimaryKey | ColumnKind::ForeignKey)
    }
}

/// Definition of one column.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name, unique within its table.
    pub name: String,
    /// Role of the column.
    pub kind: ColumnKind,
}

impl ColumnDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, kind: ColumnKind) -> Self {
        ColumnDef {
            name: name.into(),
            kind,
        }
    }
}

/// Schema of one table.
#[derive(Debug, Clone)]
pub struct TableSchema {
    /// Table name, unique within the catalog.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Creates a schema.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Self {
        TableSchema {
            name: name.into(),
            columns,
        }
    }

    /// Index of a column by name (the first, if names repeat).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Indices of filterable (n./c.) columns.
    pub fn filterable_columns(&self) -> Vec<usize> {
        (0..self.columns.len())
            .filter(|&i| self.columns[i].kind.is_filterable())
            .collect()
    }
}

/// Whether a join relation matches a primary key on one side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// One-to-many: `left` column is a primary key referenced by `right`.
    PkFk,
    /// Many-to-many: both sides are foreign keys into a shared id space.
    FkFk,
}

/// An equi-join relation between two table columns — one edge of the schema
/// join graph (paper Figure 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinRelation {
    /// Left table name.
    pub left_table: String,
    /// Left join column name.
    pub left_column: String,
    /// Right table name.
    pub right_table: String,
    /// Right join column name.
    pub right_column: String,
    /// PK-FK or FK-FK.
    pub kind: JoinKind,
}

impl JoinRelation {
    /// Convenience constructor.
    pub fn new(
        left_table: impl Into<String>,
        left_column: impl Into<String>,
        right_table: impl Into<String>,
        right_column: impl Into<String>,
        kind: JoinKind,
    ) -> Self {
        JoinRelation {
            left_table: left_table.into(),
            left_column: left_column.into(),
            right_table: right_table.into(),
            right_column: right_column.into(),
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filterable_columns_excludes_keys() {
        let s = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnKind::PrimaryKey),
                ColumnDef::new("uid", ColumnKind::ForeignKey),
                ColumnDef::new("score", ColumnKind::Numeric),
                ColumnDef::new("kind", ColumnKind::Categorical),
            ],
        );
        assert_eq!(s.filterable_columns(), vec![2, 3]);
        assert_eq!(s.column_index("score"), Some(2));
        assert_eq!(s.column_index("nope"), None);
    }
}
