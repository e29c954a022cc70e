#![warn(missing_docs)]

//! # A mini relational engine with similarity group-by operators
//!
//! The paper prototypes SGB-All / SGB-Any *inside PostgreSQL* (Section 8.2):
//! the parser grammar gains `DISTANCE-TO-ALL` / `DISTANCE-TO-ANY` (and, for
//! the order-independent family member, `AROUND`) clauses,
//! the planner produces a similarity-aware plan, and the executor's
//! aggregation routine maintains groups with bounding rectangles, an
//! in-memory R-tree, and a Union-Find structure.
//!
//! This crate reproduces that integration as a self-contained in-memory SQL
//! engine so the whole pipeline — parse → plan (with predicate pushdown and
//! hash-join extraction) → execute — runs the similarity group-by as a
//! first-class relational operator interleaved with scans, filters, joins,
//! and standard aggregation:
//!
//! ```
//! use sgb_relation::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE gps (id INT, lat DOUBLE, lon DOUBLE)").unwrap();
//! db.execute(
//!     "INSERT INTO gps VALUES (1, 1.0, 7.0), (2, 2.0, 6.0), (3, 6.0, 2.0), \
//!      (4, 7.0, 1.0), (5, 4.0, 4.0)",
//! )
//! .unwrap();
//! // Example 1 of the paper: ε = 3 under L∞, ELIMINATE drops the
//! // overlapping point; the query output is {2, 2}.
//! let out = db
//!     .execute(
//!         "SELECT count(*) FROM gps \
//!          GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP ELIMINATE",
//!     )
//!     .unwrap();
//! let counts: Vec<String> = out.rows.iter().map(|r| r[0].to_string()).collect();
//! assert_eq!(counts, vec!["2", "2"]);
//! ```

// Library code answers every failure with a typed `Error`; tests may panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::unreachable,
        clippy::panic
    )
)]

mod cache;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod plan;
pub mod planner;
pub mod schema;
pub mod session;
pub mod sql;
pub mod subscription;
pub mod table;
pub mod value;

pub use engine::Database;
pub use error::{Error, Result};
pub use expr::{BinOp, BoundExpr};
pub use plan::{AggCall, AggKind, IndexCacheStatus, NodeStat, Plan, SgbMode, SnapshotInfo};
pub use schema::{Column, Schema};
pub use session::SessionOptions;
pub use subscription::{GroupingSnapshot, SubscriptionHandle};
pub use table::{Row, Table};
pub use value::Value;

// Re-export the cache counters so sessions can read `cache_stats()`
// without importing sgb-core directly, and the governor vocabulary so
// sessions can build cancel tokens and match `Error::Aborted` payloads.
pub use sgb_core::{CacheStats, CancelToken, SgbError};

// Re-export the telemetry vocabulary behind `Database::metrics` /
// `Database::slow_queries`.
pub use sgb_telemetry::{MetricsRegistry, SlowQuery, SlowQueryLog};
