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

/// Name → position index over a list of names: an open-addressed table
/// built once, so a lookup hashes the name and compares one candidate
/// instead of scanning the list. Holds positions
/// only; every hit is confirmed against the owner's current names, so a
/// stale index can cost a scan but never return a wrong position.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameIndex {
    /// Position + 1 per slot, 0 = empty; length is a power of two.
    slots: Vec<u32>,
}

impl NameIndex {
    /// Indexes `names` in order; of equal names the first wins.
    pub(crate) fn build(names: &[&str]) -> NameIndex {
        let mut slots = vec![0u32; (names.len() * 2).next_power_of_two().max(2)];
        let mask = slots.len() - 1;
        for (i, name) in names.iter().enumerate() {
            let mut at = Self::hash(name) as usize & mask;
            loop {
                match slots[at] {
                    0 => {
                        slots[at] = i as u32 + 1;
                        break;
                    }
                    // An equal earlier name keeps the slot.
                    p if names[p as usize - 1] == *name => break,
                    _ => at = (at + 1) & mask,
                }
            }
        }
        NameIndex { slots }
    }

    /// Position of `name`, where `name_at(i)` is the owner's `i`-th name
    /// (`None` past the end).
    pub(crate) fn get<'a>(
        &self,
        name: &str,
        name_at: impl Fn(usize) -> Option<&'a str>,
    ) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = Self::hash(name) as usize & mask;
        loop {
            match self.slots[at] {
                0 => return None,
                p if name_at(p as usize - 1) == Some(name) => return Some(p as usize - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Length, first, middle and last byte, multiplied out: constant
    /// work whatever the length. It only has to spread the catalog's own
    /// names over the slots — every hit is confirmed by comparing the
    /// names — and a looked-up name from outside can at worst walk the
    /// probe run those names formed.
    fn hash(name: &str) -> u64 {
        let b = name.as_bytes();
        let Some((&first, &last)) = b.first().zip(b.last()) else {
            return 0;
        };
        let word = b.len() as u64
            | (first as u64) << 16
            | (b[b.len() / 2] as u64) << 24
            | (last as u64) << 32;
        word.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40
    }
}

/// Schema of one table.
#[derive(Debug, Clone)]
pub struct TableSchema {
    /// Table name, unique within the catalog.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    /// Column name → position, built by [`TableSchema::new`].
    by_name: NameIndex,
}

impl TableSchema {
    /// Creates a schema.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Self {
        let names: Vec<&str> = columns.iter().map(|c| c.name.as_str()).collect();
        let by_name = NameIndex::build(&names);
        TableSchema {
            name: name.into(),
            columns,
            by_name,
        }
    }

    /// Index of a column by name: one hashed probe; the scan only runs
    /// for a name the index does not know (`columns` is public and may
    /// have been edited since [`TableSchema::new`]).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.by_name
            .get(name, |i| self.columns.get(i).map(|c| c.name.as_str()))
            .or_else(|| self.columns.iter().position(|c| c.name == name))
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

    #[test]
    fn column_index_matches_a_scan() {
        // Long shared prefixes, a duplicate (first wins), the empty name.
        let names = [
            "CreationDate",
            "CreationDateOfTheLongestColumnName",
            "Id",
            "id",
            "",
            "Id",
            "PostHistoryTypeId",
        ];
        let mut s = TableSchema::new(
            "t",
            names
                .iter()
                .map(|n| ColumnDef::new(*n, ColumnKind::Numeric))
                .collect(),
        );
        for probe in names.iter().chain(&["ID", "CreationDat", "x"]) {
            let scan = names.iter().position(|n| n == probe);
            assert_eq!(s.column_index(probe), scan, "{probe:?}");
        }
        // `columns` is public: an edit after construction is still found.
        s.columns[2].name = "renamed".into();
        assert_eq!(s.column_index("renamed"), Some(2));
        assert_eq!(s.column_index("Id"), Some(5));
    }
}
