//! The catalog: named tables plus the schema-level join graph.

use crate::schema::JoinRelation;
use crate::table::Table;
use crate::{Result, StorageError};

/// Dense identifier of a table inside a [`Catalog`]. Hot paths address
/// tables by id rather than name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub usize);

/// A database: tables in insertion order and the join relations between
/// them (the edges of paper Figure 1).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<Table>,
    joins: Vec<JoinRelation>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a table and returns its id.
    pub fn add_table(&mut self, table: Table) -> TableId {
        self.tables.push(table);
        TableId(self.tables.len() - 1)
    }

    /// Registers a join relation between existing tables.
    pub fn add_join(&mut self, join: JoinRelation) -> Result<()> {
        self.table_id(&join.left_table)?;
        self.table_id(&join.right_table)?;
        self.joins.push(join);
        Ok(())
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Table by id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0]
    }

    /// Mutable table by id (used by the update experiment to insert rows).
    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        &mut self.tables[id.0]
    }

    /// Id of a table by name (the first, if names repeat).
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.tables
            .iter()
            .position(|t| t.name() == name)
            .map(TableId)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Table by name.
    pub fn table_by_name(&self, name: &str) -> Result<&Table> {
        self.table_id(name).map(|id| self.table(id))
    }

    /// All tables in id order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// All join relations.
    pub fn joins(&self) -> &[JoinRelation] {
        &self.joins
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::row_count).sum()
    }

    /// Approximate heap size of all table data in bytes.
    pub fn heap_size(&self) -> usize {
        self.tables.iter().map(Table::heap_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnKind, JoinKind, TableSchema};

    fn mk(name: &str) -> Table {
        Table::empty(TableSchema::new(
            name,
            vec![ColumnDef::new("id", ColumnKind::PrimaryKey)],
        ))
    }

    #[test]
    fn add_and_lookup() {
        let mut c = Catalog::new();
        let a = c.add_table(mk("a"));
        let b = c.add_table(mk("b"));
        assert_eq!(c.table_id("a").unwrap(), a);
        assert_eq!(c.table_id("b").unwrap(), b);
        assert!(c.table_id("zzz").is_err());
    }

    #[test]
    fn join_requires_known_tables() {
        let mut c = Catalog::new();
        c.add_table(mk("a"));
        let bad = JoinRelation::new("a", "id", "ghost", "id", JoinKind::PkFk);
        assert!(c.add_join(bad).is_err());
        c.add_table(mk("b"));
        let ok = JoinRelation::new("a", "id", "b", "id", JoinKind::PkFk);
        c.add_join(ok).unwrap();
        assert_eq!(c.joins().len(), 1);
    }
}
