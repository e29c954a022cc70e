//! A seeded TPC-H-like data generator.
//!
//! Generates the five tables the paper's evaluation queries (Table 2)
//! touch — `customer`, `orders`, `lineitem`, `supplier`, `partsupp` — with
//! TPC-H's schema fragments, key structure (orders reference customers,
//! lineitems reference orders/parts/suppliers) and plausible value
//! distributions. The `density` knob scales the rows-per-SF constants down
//! from the official 150k-customers-per-SF so that the paper's SF 1–60
//! sweeps complete on one machine; the *relative* table sizes match TPC-H.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sgb_geom::Point;
use sgb_relation::value::days_from_civil;
use sgb_relation::{Database, Schema, Table, Value};

/// Generator configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct TpchConfig {
    /// Scale factor (the paper sweeps 1–60).
    pub scale_factor: f64,
    /// Fraction of official TPC-H cardinalities per SF
    /// (1.0 = 150,000 customers per SF; default 0.01).
    pub density: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TpchConfig {
    /// A configuration at `scale_factor` with the default density.
    pub fn new(scale_factor: f64) -> Self {
        assert!(scale_factor > 0.0);
        Self {
            scale_factor,
            density: 0.01,
            seed: 0x79C4,
        }
    }

    /// Overrides the density.
    pub fn density(mut self, density: f64) -> Self {
        assert!(density > 0.0 && density <= 1.0);
        self.density = density;
        self
    }

    /// Overrides the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn rows(&self, per_sf: f64) -> usize {
        ((per_sf * self.scale_factor * self.density).round() as usize).max(1)
    }

    /// Generates only the `(customer, orders)` pair — the tables behind
    /// the SGB1 two-dimensional grouping attribute. Orders of magnitude
    /// faster than [`generate`](Self::generate) at high scale factors
    /// because the lineitem fan-out is skipped; used by the Figure 10
    /// sweeps, which only consume [`TpchData::sgb1_points`]-style data.
    pub fn generate_customer_orders(&self) -> (Table, Table) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let n_customer = self.rows(150_000.0);
        let n_orders = self.rows(1_500_000.0);
        let mut customer = Table::empty(Schema::new([
            "c_custkey",
            "c_name",
            "c_acctbal",
            "c_nationkey",
        ]));
        for k in 1..=n_customer {
            customer
                .push(vec![
                    Value::Int(k as i64),
                    Value::Str(format!("Customer#{k:09}")),
                    Value::Float(round2(rng.gen_range(-999.99..9999.99))),
                    Value::Int(rng.gen_range(0..25)),
                ])
                .unwrap();
        }
        let date_lo = days_from_civil(1992, 1, 1);
        let date_hi = days_from_civil(1998, 8, 2);
        let mut orders = Table::empty(Schema::new([
            "o_orderkey",
            "o_custkey",
            "o_totalprice",
            "o_orderdate",
        ]));
        for ok in 1..=n_orders {
            orders
                .push(vec![
                    Value::Int(ok as i64),
                    Value::Int(rng.gen_range(1..=n_customer) as i64),
                    Value::Float(round2(rng.gen_range(1_000.0..500_000.0))),
                    Value::Date(rng.gen_range(date_lo..date_hi)),
                ])
                .unwrap();
        }
        (customer, orders)
    }

    /// Generates all tables.
    pub fn generate(&self) -> TpchData {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let n_customer = self.rows(150_000.0);
        let n_orders = self.rows(1_500_000.0);
        let n_supplier = self.rows(10_000.0);
        let n_part = self.rows(200_000.0);

        // customer(c_custkey, c_name, c_acctbal, c_nationkey)
        let mut customer = Table::empty(Schema::new([
            "c_custkey",
            "c_name",
            "c_acctbal",
            "c_nationkey",
        ]));
        for k in 1..=n_customer {
            customer
                .push(vec![
                    Value::Int(k as i64),
                    Value::Str(format!("Customer#{k:09}")),
                    Value::Float(round2(rng.gen_range(-999.99..9999.99))),
                    Value::Int(rng.gen_range(0..25)),
                ])
                .unwrap();
        }

        // supplier(s_suppkey, s_name, s_acctbal, s_nationkey)
        let mut supplier = Table::empty(Schema::new([
            "s_suppkey",
            "s_name",
            "s_acctbal",
            "s_nationkey",
        ]));
        for k in 1..=n_supplier {
            supplier
                .push(vec![
                    Value::Int(k as i64),
                    Value::Str(format!("Supplier#{k:09}")),
                    Value::Float(round2(rng.gen_range(-999.99..9999.99))),
                    Value::Int(rng.gen_range(0..25)),
                ])
                .unwrap();
        }

        // partsupp(ps_partkey, ps_suppkey, ps_supplycost): 4 suppliers/part.
        let mut partsupp = Table::empty(Schema::new(["ps_partkey", "ps_suppkey", "ps_supplycost"]));
        for part in 1..=n_part {
            for s in 0..4usize {
                // TPC-H's supplier spreading formula keeps pairs distinct.
                let supp = ((part + s * (n_supplier / 4 + (part - 1) / n_supplier.max(1)))
                    % n_supplier)
                    + 1;
                partsupp
                    .push(vec![
                        Value::Int(part as i64),
                        Value::Int(supp as i64),
                        Value::Float(round2(rng.gen_range(1.0..1000.0))),
                    ])
                    .unwrap();
            }
        }

        // orders(o_orderkey, o_custkey, o_totalprice, o_orderdate) and
        // lineitem(l_orderkey, l_partkey, l_suppkey, l_quantity,
        //          l_extendedprice, l_discount, l_shipdate, l_receiptdate).
        let mut orders = Table::empty(Schema::new([
            "o_orderkey",
            "o_custkey",
            "o_totalprice",
            "o_orderdate",
        ]));
        let mut lineitem = Table::empty(Schema::new([
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
            "l_receiptdate",
        ]));
        let date_lo = days_from_civil(1992, 1, 1);
        let date_hi = days_from_civil(1998, 8, 2);
        for ok in 1..=n_orders {
            let custkey = rng.gen_range(1..=n_customer) as i64;
            let orderdate = rng.gen_range(date_lo..date_hi);
            let lines = rng.gen_range(1..=7usize);
            let mut total = 0.0;
            for _ in 0..lines {
                let quantity = rng.gen_range(1..=50i64);
                let partkey = rng.gen_range(1..=n_part) as i64;
                // TPC-H price formula: part-derived base price × quantity.
                let base = 900.0 + (partkey % 1000) as f64 / 10.0;
                let extended = round2(base * quantity as f64);
                let discount = round2(rng.gen_range(0.0..0.10));
                let shipdate = orderdate + rng.gen_range(1..=121);
                let receiptdate = shipdate + rng.gen_range(1..=30);
                let suppkey = rng.gen_range(1..=n_supplier) as i64;
                total += extended * (1.0 - discount);
                lineitem
                    .push(vec![
                        Value::Int(ok as i64),
                        Value::Int(partkey),
                        Value::Int(suppkey),
                        Value::Int(quantity),
                        Value::Float(extended),
                        Value::Float(discount),
                        Value::Date(shipdate),
                        Value::Date(receiptdate),
                    ])
                    .unwrap();
            }
            orders
                .push(vec![
                    Value::Int(ok as i64),
                    Value::Int(custkey),
                    Value::Float(round2(total)),
                    Value::Date(orderdate),
                ])
                .unwrap();
        }

        TpchData {
            customer,
            orders,
            lineitem,
            supplier,
            partsupp,
        }
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// The generated tables.
#[derive(Clone, Debug)]
pub struct TpchData {
    /// `customer`.
    pub customer: Table,
    /// `orders`.
    pub orders: Table,
    /// `lineitem`.
    pub lineitem: Table,
    /// `supplier`.
    pub supplier: Table,
    /// `partsupp`.
    pub partsupp: Table,
}

impl TpchData {
    /// Registers every table in `db` under its TPC-H name.
    pub fn register_all(&self, db: &mut Database) {
        db.register("customer", self.customer.clone());
        db.register("orders", self.orders.clone());
        db.register("lineitem", self.lineitem.clone());
        db.register("supplier", self.supplier.clone());
        db.register("partsupp", self.partsupp.clone());
    }

    /// The two-dimensional grouping attribute of the SGB1/SGB2 queries
    /// (customer account balance × total order spend), computed directly
    /// and rescaled to the unit square. This is the point stream the
    /// Figure 10 sweeps feed to the SGB operators.
    pub fn sgb1_points(&self) -> Vec<Point<2>> {
        sgb1_points_from(&self.customer, &self.orders)
    }
}

/// [`TpchData::sgb1_points`] over standalone `(customer, orders)` tables
/// (as produced by [`TpchConfig::generate_customer_orders`]).
pub fn sgb1_points_from(customer: &Table, orders: &Table) -> Vec<Point<2>> {
    // sum(o_totalprice) per customer.
    let n = customer.len();
    let mut spend = vec![0.0f64; n + 1];
    for row in &orders.rows {
        let cust = row[1].as_i64().unwrap() as usize;
        spend[cust] += row[2].as_f64().unwrap();
    }
    let mut pts = Vec::with_capacity(n);
    let mut max_spend = f64::MIN_POSITIVE;
    for &s in &spend {
        max_spend = max_spend.max(s);
    }
    for row in &customer.rows {
        let key = row[0].as_i64().unwrap() as usize;
        let ab = row[2].as_f64().unwrap();
        // acctbal spans [-1000, 10000): rescale to [0, 1].
        let x = (ab + 1000.0) / 11_000.0;
        let y = spend[key] / max_spend;
        pts.push(Point::new([x, y]));
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TpchData {
        TpchConfig::new(1.0).density(0.002).generate()
    }

    #[test]
    fn cardinalities_scale_with_sf_and_density() {
        let d1 = TpchConfig::new(1.0).density(0.002).generate();
        assert_eq!(d1.customer.len(), 300);
        assert_eq!(d1.orders.len(), 3000);
        assert_eq!(d1.supplier.len(), 20);
        let d2 = TpchConfig::new(2.0).density(0.002).generate();
        assert_eq!(d2.customer.len(), 600);
        assert_eq!(d2.orders.len(), 6000);
        // Lineitem averages 4 lines per order.
        let ratio = d1.lineitem.len() as f64 / d1.orders.len() as f64;
        assert!((1.0..=7.0).contains(&ratio));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TpchConfig::new(1.0).density(0.001).generate();
        let b = TpchConfig::new(1.0).density(0.001).generate();
        assert_eq!(a.customer.rows, b.customer.rows);
        assert_eq!(a.lineitem.rows, b.lineitem.rows);
        let c = TpchConfig::new(1.0).density(0.001).seed(9).generate();
        assert_ne!(a.customer.rows, c.customer.rows);
    }

    #[test]
    fn referential_integrity() {
        let d = small();
        let n_cust = d.customer.len() as i64;
        let n_supp = d.supplier.len() as i64;
        let n_orders = d.orders.len() as i64;
        for row in &d.orders.rows {
            let ck = row[1].as_i64().unwrap();
            assert!(ck >= 1 && ck <= n_cust, "o_custkey {ck} out of range");
        }
        for row in &d.lineitem.rows {
            let ok = row[0].as_i64().unwrap();
            let sk = row[2].as_i64().unwrap();
            assert!(ok >= 1 && ok <= n_orders);
            assert!(sk >= 1 && sk <= n_supp);
        }
        for row in &d.partsupp.rows {
            let sk = row[1].as_i64().unwrap();
            assert!(sk >= 1 && sk <= n_supp, "ps_suppkey {sk} out of range");
        }
    }

    #[test]
    fn dates_are_ordered() {
        let d = small();
        for row in &d.lineitem.rows {
            let (Value::Date(ship), Value::Date(receipt)) = (&row[6], &row[7]) else {
                panic!("expected dates")
            };
            assert!(receipt > ship, "receipt must follow ship");
        }
    }

    #[test]
    fn totalprice_matches_lineitems() {
        let d = small();
        let mut per_order = std::collections::HashMap::new();
        for row in &d.lineitem.rows {
            let ok = row[0].as_i64().unwrap();
            let ext = row[4].as_f64().unwrap();
            let disc = row[5].as_f64().unwrap();
            *per_order.entry(ok).or_insert(0.0) += ext * (1.0 - disc);
        }
        for row in &d.orders.rows {
            let ok = row[0].as_i64().unwrap();
            let total = row[2].as_f64().unwrap();
            let expect = per_order.get(&ok).copied().unwrap_or(0.0);
            assert!(
                (total - expect).abs() < 0.5,
                "order {ok}: {total} vs {expect}"
            );
        }
    }

    #[test]
    fn registers_and_queries_through_sql() {
        let mut db = Database::new();
        small().register_all(&mut db);
        assert_eq!(db.table_names().len(), 5);
        let out = db
            .query("SELECT count(*) FROM customer WHERE c_acctbal > 0")
            .unwrap();
        let n = out.scalar().unwrap().as_i64().unwrap();
        assert!(n > 0 && n <= 300);
    }

    #[test]
    fn sgb1_points_live_in_unit_square() {
        let d = small();
        let pts = d.sgb1_points();
        assert_eq!(pts.len(), d.customer.len());
        for p in &pts {
            assert!((0.0..=1.0).contains(&p.x()), "{p:?}");
            assert!((0.0..=1.0).contains(&p.y()), "{p:?}");
        }
    }
}
