//! TPC-C subset: schema, loader, parameter generation, transactions.
//!
//! Faithful to the benchmark where it matters for a *logging* study:
//!
//! * the nine-table schema with realistic per-row write amplification;
//! * the standard transaction mix (45% New-Order, 43% Payment, 4% each
//!   Order-Status / Delivery / Stock-Level);
//! * NURand non-uniform key selection (hot customers and items);
//! * the 1% of New-Orders that roll back (exercising undo under load);
//! * hot-row contention: every New-Order updates its district row, so lock
//!   hold time — which under synchronous logging includes the log force —
//!   bounds throughput exactly as it does on real engines.
//!
//! Simplifications (documented in DESIGN.md): customer selection by id
//! rather than by last name, no initial order backlog, and scaled-down
//! population knobs for simulation speed. Row payloads are padded so the
//! log volume per transaction is in the right ballpark.

use rapilog_simcore::rng::SimRng;

use rapilog_dbengine::util::{put_u32, put_u64, Cursor};
use rapilog_dbengine::{Database, DbError, Key, TableDef, TableId};

/// Result alias.
pub type DbResult<T> = Result<T, DbError>;

/// Population knobs. TPC-C specifies 10 districts/warehouse, 3000
/// customers/district, 100 000 items; the presets scale the latter two down
/// for simulation speed while keeping the contention structure.
#[derive(Debug, Clone, Copy)]
pub struct TpccScale {
    /// Warehouses.
    pub warehouses: u64,
    /// Districts per warehouse (spec: 10).
    pub districts: u64,
    /// Customers per district.
    pub customers_per_district: u64,
    /// Item catalogue size.
    pub items: u64,
    /// Order capacity per district (grows during the run).
    pub order_capacity: u64,
}

impl TpccScale {
    /// Minimal population for unit tests.
    pub fn tiny() -> TpccScale {
        TpccScale {
            warehouses: 1,
            districts: 2,
            customers_per_district: 10,
            items: 50,
            order_capacity: 500,
        }
    }

    /// Small population for fast benchmark runs.
    pub fn small() -> TpccScale {
        TpccScale {
            warehouses: 1,
            districts: 10,
            customers_per_district: 300,
            items: 1_000,
            order_capacity: 5_000,
        }
    }

    /// Medium population (several warehouses).
    pub fn medium() -> TpccScale {
        TpccScale {
            warehouses: 2,
            districts: 10,
            customers_per_district: 1_000,
            items: 5_000,
            order_capacity: 20_000,
        }
    }
}

// ---------------------------------------------------------------------------
// Key packing
// ---------------------------------------------------------------------------

/// Packs a district key.
pub fn dist_key(w: u64, d: u64) -> Key {
    w * 100 + d
}

/// Packs a customer key.
fn cust_key(w: u64, d: u64, c: u64) -> Key {
    dist_key(w, d) * 100_000 + c
}

/// Packs a stock key.
fn stock_key(w: u64, i: u64) -> Key {
    w * 1_000_000 + i
}

/// Packs an order (and new-order) key.
pub fn order_key(w: u64, d: u64, o_id: u64) -> Key {
    (dist_key(w, d) << 32) | o_id
}

/// Packs an order-line key (`ol` in 1..=15).
fn order_line_key(w: u64, d: u64, o_id: u64, ol: u64) -> Key {
    (dist_key(w, d) << 40) | (o_id << 8) | ol
}

// ---------------------------------------------------------------------------
// Row codecs
// ---------------------------------------------------------------------------

/// Warehouse row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarehouseRow {
    /// Sales tax in basis points.
    pub tax_bp: u16,
    /// Year-to-date payments, cents.
    pub ytd_cents: u64,
}

/// District row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DistrictRow {
    /// Sales tax in basis points.
    pub tax_bp: u16,
    /// Year-to-date payments, cents.
    pub ytd_cents: u64,
    /// Next order id to assign.
    pub next_o_id: u32,
    /// Next order id to deliver.
    pub next_deliv_o_id: u32,
}

/// Customer row (padded: the filler models the wide TPC-C customer tuple).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CustomerRow {
    /// Balance, cents (may go negative).
    pub balance_cents: i64,
    /// Year-to-date payment, cents.
    pub ytd_payment_cents: u64,
    /// Payments made.
    pub payment_cnt: u32,
    /// Deliveries received.
    pub delivery_cnt: u32,
    /// Most recent order id (0 = none).
    pub last_o_id: u32,
}

/// Item row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ItemRow {
    /// Price, cents.
    pub price_cents: u32,
}

/// Stock row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StockRow {
    /// Quantity on hand.
    pub qty: i32,
    /// Year-to-date quantity sold.
    pub ytd: u32,
    /// Orders touching this stock.
    pub order_cnt: u32,
    /// Remote (other-warehouse) orders.
    pub remote_cnt: u32,
}

/// Order row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OrderRow {
    /// Ordering customer.
    pub c_id: u32,
    /// Carrier id; 0 = undelivered.
    pub carrier: u8,
    /// Number of order lines.
    pub ol_cnt: u8,
    /// Order total, cents.
    pub total_cents: u32,
}

/// Order-line row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OrderLineRow {
    /// The item.
    pub item: u32,
    /// Supplying warehouse.
    pub supply_w: u32,
    /// Quantity.
    pub qty: u8,
    /// Line amount, cents.
    pub amount_cents: u32,
}

/// Customer-row filler bytes, modelling the wide TPC-C tuple.
const CUSTOMER_PAD: usize = 100;

macro_rules! padded {
    ($buf:expr, $pad:expr) => {{
        let mut b = $buf;
        b.resize(b.len() + $pad, 0xCC);
        b
    }};
}

impl WarehouseRow {
    /// Encodes the row.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&self.tax_bp.to_le_bytes());
        put_u64(&mut b, self.ytd_cents);
        b
    }

    /// Decodes the row.
    pub fn decode(bytes: &[u8]) -> DbResult<WarehouseRow> {
        let mut c = Cursor::new(bytes);
        (|| {
            Some(WarehouseRow {
                tax_bp: c.u16()?,
                ytd_cents: c.u64()?,
            })
        })()
        .ok_or_else(|| DbError::Corrupt("warehouse row".to_string()))
    }
}

impl DistrictRow {
    /// Encodes the row.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&self.tax_bp.to_le_bytes());
        put_u64(&mut b, self.ytd_cents);
        put_u32(&mut b, self.next_o_id);
        put_u32(&mut b, self.next_deliv_o_id);
        b
    }

    /// Decodes the row.
    pub fn decode(bytes: &[u8]) -> DbResult<DistrictRow> {
        let mut c = Cursor::new(bytes);
        (|| {
            Some(DistrictRow {
                tax_bp: c.u16()?,
                ytd_cents: c.u64()?,
                next_o_id: c.u32()?,
                next_deliv_o_id: c.u32()?,
            })
        })()
        .ok_or_else(|| DbError::Corrupt("district row".to_string()))
    }
}

impl CustomerRow {
    /// Encodes the row (with padding).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        put_u64(&mut b, self.balance_cents as u64);
        put_u64(&mut b, self.ytd_payment_cents);
        put_u32(&mut b, self.payment_cnt);
        put_u32(&mut b, self.delivery_cnt);
        put_u32(&mut b, self.last_o_id);
        padded!(b, CUSTOMER_PAD)
    }

    /// Decodes the row.
    pub fn decode(bytes: &[u8]) -> DbResult<CustomerRow> {
        let mut c = Cursor::new(bytes);
        (|| {
            Some(CustomerRow {
                balance_cents: c.u64()? as i64,
                ytd_payment_cents: c.u64()?,
                payment_cnt: c.u32()?,
                delivery_cnt: c.u32()?,
                last_o_id: c.u32()?,
            })
        })()
        .ok_or_else(|| DbError::Corrupt("customer row".to_string()))
    }
}

impl ItemRow {
    /// Encodes the row (padded with a name-like filler).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        put_u32(&mut b, self.price_cents);
        padded!(b, 24)
    }

    /// Decodes the row.
    pub fn decode(bytes: &[u8]) -> DbResult<ItemRow> {
        let mut c = Cursor::new(bytes);
        c.u32()
            .map(|price_cents| ItemRow { price_cents })
            .ok_or_else(|| DbError::Corrupt("item row".to_string()))
    }
}

impl StockRow {
    /// Encodes the row.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        put_u32(&mut b, self.qty as u32);
        put_u32(&mut b, self.ytd);
        put_u32(&mut b, self.order_cnt);
        put_u32(&mut b, self.remote_cnt);
        b
    }

    /// Decodes the row.
    pub fn decode(bytes: &[u8]) -> DbResult<StockRow> {
        let mut c = Cursor::new(bytes);
        (|| {
            Some(StockRow {
                qty: c.u32()? as i32,
                ytd: c.u32()?,
                order_cnt: c.u32()?,
                remote_cnt: c.u32()?,
            })
        })()
        .ok_or_else(|| DbError::Corrupt("stock row".to_string()))
    }
}

impl OrderRow {
    /// Encodes the row.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        put_u32(&mut b, self.c_id);
        b.push(self.carrier);
        b.push(self.ol_cnt);
        put_u32(&mut b, self.total_cents);
        b
    }

    /// Decodes the row.
    pub fn decode(bytes: &[u8]) -> DbResult<OrderRow> {
        let mut c = Cursor::new(bytes);
        (|| {
            Some(OrderRow {
                c_id: c.u32()?,
                carrier: c.u8()?,
                ol_cnt: c.u8()?,
                total_cents: c.u32()?,
            })
        })()
        .ok_or_else(|| DbError::Corrupt("order row".to_string()))
    }
}

impl OrderLineRow {
    /// Encodes the row.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        put_u32(&mut b, self.item);
        put_u32(&mut b, self.supply_w);
        b.push(self.qty);
        put_u32(&mut b, self.amount_cents);
        b
    }

    /// Decodes the row.
    pub fn decode(bytes: &[u8]) -> DbResult<OrderLineRow> {
        let mut c = Cursor::new(bytes);
        (|| {
            Some(OrderLineRow {
                item: c.u32()?,
                supply_w: c.u32()?,
                qty: c.u8()?,
                amount_cents: c.u32()?,
            })
        })()
        .ok_or_else(|| DbError::Corrupt("order line row".to_string()))
    }
}

// ---------------------------------------------------------------------------
// Schema, loader
// ---------------------------------------------------------------------------

/// Resolved table ids for the TPC-C schema.
#[derive(Debug, Clone, Copy)]
pub struct TpccTables {
    /// WAREHOUSE.
    pub warehouse: TableId,
    /// DISTRICT.
    pub district: TableId,
    /// CUSTOMER.
    pub customer: TableId,
    /// ITEM.
    pub item: TableId,
    /// STOCK.
    pub stock: TableId,
    /// ORDERS.
    pub orders: TableId,
    /// ORDER-LINE.
    pub order_line: TableId,
    /// NEW-ORDER.
    pub new_order: TableId,
    /// HISTORY.
    pub history: TableId,
}

/// Table definitions for [`Database::create`].
pub fn table_defs(scale: &TpccScale) -> Vec<TableDef> {
    let dists = scale.warehouses * scale.districts;
    let customers = dists * scale.customers_per_district;
    let orders = dists * scale.order_capacity;
    vec![
        TableDef {
            name: "warehouse".to_string(),
            slot_size: 16,
            max_rows: scale.warehouses,
        },
        TableDef {
            name: "district".to_string(),
            slot_size: 24,
            max_rows: dists,
        },
        TableDef {
            name: "customer".to_string(),
            slot_size: (28 + CUSTOMER_PAD) as u16,
            max_rows: customers,
        },
        TableDef {
            name: "item".to_string(),
            slot_size: 32,
            max_rows: scale.items,
        },
        TableDef {
            name: "stock".to_string(),
            slot_size: 16,
            max_rows: scale.warehouses * scale.items,
        },
        TableDef {
            name: "orders".to_string(),
            slot_size: 16,
            max_rows: orders,
        },
        TableDef {
            name: "order_line".to_string(),
            slot_size: 16,
            max_rows: orders * 11, // avg 10 lines + slack
        },
        TableDef {
            name: "new_order".to_string(),
            slot_size: 1,
            max_rows: orders,
        },
        TableDef {
            name: "history".to_string(),
            slot_size: 16,
            max_rows: orders * 2,
        },
    ]
}

impl TpccTables {
    /// Resolves the schema's table ids from an open database.
    pub fn resolve(db: &Database) -> DbResult<TpccTables> {
        let get = |name: &str| {
            db.table(name)
                .ok_or_else(|| DbError::Corrupt(format!("missing table {name}")))
        };
        Ok(TpccTables {
            warehouse: get("warehouse")?,
            district: get("district")?,
            customer: get("customer")?,
            item: get("item")?,
            stock: get("stock")?,
            orders: get("orders")?,
            order_line: get("order_line")?,
            new_order: get("new_order")?,
            history: get("history")?,
        })
    }
}

/// Populates the schema. Commits in batches so undo stays bounded.
pub async fn load(db: &Database, scale: &TpccScale, rng: &mut SimRng) -> DbResult<TpccTables> {
    let t = TpccTables::resolve(db)?;
    let mut txn = db.begin().await?;
    let mut batch = 0usize;
    macro_rules! step {
        () => {
            batch += 1;
            if batch % 500 == 0 {
                db.commit(txn).await?;
                txn = db.begin().await?;
            }
        };
    }
    for i in 1..=scale.items {
        let row = ItemRow {
            price_cents: rng.gen_range(100..=10_000),
        };
        db.insert(txn, t.item, i, &row.encode()).await?;
        step!();
    }
    for w in 1..=scale.warehouses {
        let wrow = WarehouseRow {
            tax_bp: rng.gen_range(0..=2000),
            ytd_cents: 0,
        };
        db.insert(txn, t.warehouse, w, &wrow.encode()).await?;
        step!();
        for i in 1..=scale.items {
            let srow = StockRow {
                qty: rng.gen_range(10..=100),
                ytd: 0,
                order_cnt: 0,
                remote_cnt: 0,
            };
            db.insert(txn, t.stock, stock_key(w, i), &srow.encode())
                .await?;
            step!();
        }
        for d in 1..=scale.districts {
            let drow = DistrictRow {
                tax_bp: rng.gen_range(0..=2000),
                ytd_cents: 0,
                next_o_id: 1,
                next_deliv_o_id: 1,
            };
            db.insert(txn, t.district, dist_key(w, d), &drow.encode())
                .await?;
            step!();
            for c in 1..=scale.customers_per_district {
                let crow = CustomerRow {
                    balance_cents: -1000,
                    ..CustomerRow::default()
                };
                db.insert(txn, t.customer, cust_key(w, d, c), &crow.encode())
                    .await?;
                step!();
            }
        }
    }
    db.commit(txn).await?;
    Ok(t)
}

// ---------------------------------------------------------------------------
// Parameter generation (client side)
// ---------------------------------------------------------------------------

/// TPC-C NURand.
fn nurand(rng: &mut SimRng, a: u64, x: u64, y: u64) -> u64 {
    // The constant C is fixed per run; any constant is spec-conformant for
    // our purposes.
    const C: u64 = 123;
    (((rng.gen_range(0..=a) | rng.gen_range(x..=y)) + C) % (y - x + 1)) + x
}

/// One order line request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineInput {
    /// Item id.
    pub item: u64,
    /// Supplying warehouse.
    pub supply_w: u64,
    /// Quantity.
    pub qty: u8,
}

/// The five transaction types with their parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnParams {
    /// New-Order.
    NewOrder {
        /// Warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Customer.
        c: u64,
        /// 5–15 lines, sorted for deadlock-free stock locking.
        lines: Vec<LineInput>,
        /// The spec's 1% intentional rollback.
        rollback: bool,
    },
    /// Payment.
    Payment {
        /// Warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Customer.
        c: u64,
        /// Amount in cents.
        amount_cents: u32,
        /// Unique history key chosen by the client.
        history_key: Key,
    },
    /// Order-Status.
    OrderStatus {
        /// Warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Customer.
        c: u64,
    },
    /// Delivery (one district per invocation, as a scaled-down batch).
    Delivery {
        /// Warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Carrier id.
        carrier: u8,
    },
    /// Stock-Level.
    StockLevel {
        /// Warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Quantity threshold.
        threshold: i32,
    },
}

impl TxnParams {
    /// The transaction's kind index (for mix accounting): 0 = New-Order,
    /// 1 = Payment, 2 = Order-Status, 3 = Delivery, 4 = Stock-Level.
    pub fn kind(&self) -> usize {
        match self {
            TxnParams::NewOrder { .. } => 0,
            TxnParams::Payment { .. } => 1,
            TxnParams::OrderStatus { .. } => 2,
            TxnParams::Delivery { .. } => 3,
            TxnParams::StockLevel { .. } => 4,
        }
    }
}

/// Draws a transaction from the standard mix (45/43/4/4/4). `client_tag`
/// and `seq` make the history key unique without coordination.
pub fn generate(rng: &mut SimRng, scale: &TpccScale, client_tag: u64, seq: u64) -> TxnParams {
    let w = rng.gen_range(1..=scale.warehouses);
    let d = rng.gen_range(1..=scale.districts);
    let roll = rng.gen_range(0..100u32);
    if roll < 45 {
        let c = nurand(rng, 1023, 1, scale.customers_per_district);
        let n_lines = rng.gen_range(5..=15usize);
        let mut lines: Vec<LineInput> = (0..n_lines)
            .map(|_| {
                let item = nurand(rng, 8191, 1, scale.items);
                // 1% of lines come from a remote warehouse.
                let supply_w = if scale.warehouses > 1 && rng.gen_range(0..100) == 0 {
                    let mut other = rng.gen_range(1..=scale.warehouses);
                    if other == w {
                        other = other % scale.warehouses + 1;
                    }
                    other
                } else {
                    w
                };
                LineInput {
                    item,
                    supply_w,
                    qty: rng.gen_range(1..=10),
                }
            })
            .collect();
        // Sorted stock locking prevents New-Order/New-Order deadlocks.
        lines.sort_by_key(|l| (l.supply_w, l.item));
        lines.dedup_by_key(|l| (l.supply_w, l.item));
        TxnParams::NewOrder {
            w,
            d,
            c,
            lines,
            rollback: rng.gen_range(0..100) == 0,
        }
    } else if roll < 88 {
        TxnParams::Payment {
            w,
            d,
            c: nurand(rng, 1023, 1, scale.customers_per_district),
            amount_cents: rng.gen_range(100..=500_000),
            history_key: (client_tag << 32) | (seq & 0xFFFF_FFFF),
        }
    } else if roll < 92 {
        TxnParams::OrderStatus {
            w,
            d,
            c: nurand(rng, 1023, 1, scale.customers_per_district),
        }
    } else if roll < 96 {
        TxnParams::Delivery {
            w,
            d,
            carrier: rng.gen_range(1..=10),
        }
    } else {
        TxnParams::StockLevel {
            w,
            d,
            threshold: rng.gen_range(10..=20),
        }
    }
}

// ---------------------------------------------------------------------------
// Execution (server side)
// ---------------------------------------------------------------------------

/// Executes one transaction to completion (commit or rollback). `Ok` means
/// the commit was acknowledged; `Err` carries the abort reason (the caller
/// retries on [`DbError::LockTimeout`]). The spec's intentional New-Order
/// rollback reports `Ok` — it is a successful (aborted-by-design) run.
pub async fn execute(db: &Database, t: &TpccTables, params: &TxnParams) -> DbResult<()> {
    match params {
        TxnParams::NewOrder {
            w,
            d,
            c,
            lines,
            rollback,
        } => new_order(db, t, *w, *d, *c, lines, *rollback).await,
        TxnParams::Payment {
            w,
            d,
            c,
            amount_cents,
            history_key,
        } => payment(db, t, *w, *d, *c, *amount_cents, *history_key).await,
        TxnParams::OrderStatus { w, d, c } => order_status(db, t, *w, *d, *c).await,
        TxnParams::Delivery { w, d, carrier } => delivery(db, t, *w, *d, *carrier).await,
        TxnParams::StockLevel { w, d, threshold } => stock_level(db, t, *w, *d, *threshold).await,
    }
}

/// Runs `body`; on error aborts the transaction and propagates.
macro_rules! tx {
    ($db:expr, $txn:expr, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(err) => {
                let _ = $db.abort($txn).await;
                return Err(err);
            }
        }
    };
}

fn need<T>(v: Option<T>, what: &str) -> DbResult<T> {
    v.ok_or_else(|| DbError::Corrupt(format!("missing {what}")))
}

async fn new_order(
    db: &Database,
    t: &TpccTables,
    w: u64,
    d: u64,
    c: u64,
    lines: &[LineInput],
    rollback: bool,
) -> DbResult<()> {
    let txn = db.begin().await?;
    // District: hot row, locked first.
    let dk = dist_key(w, d);
    let draw = tx!(db, txn, db.get_for_update(txn, t.district, dk).await);
    let mut drow = tx!(
        db,
        txn,
        DistrictRow::decode(&tx!(db, txn, need(draw, "district")))
    );
    let o_id = drow.next_o_id as u64;
    drow.next_o_id += 1;
    tx!(
        db,
        txn,
        db.update(txn, t.district, dk, &drow.encode()).await
    );
    // Customer read (no lock).
    let _cust = tx!(db, txn, db.get(t.customer, cust_key(w, d, c)).await);
    let mut total = 0u64;
    for (ol_idx, line) in lines.iter().enumerate() {
        let ol_no = ol_idx as u64 + 1;
        let item = tx!(db, txn, db.get(t.item, line.item).await);
        let item = tx!(db, txn, ItemRow::decode(&tx!(db, txn, need(item, "item"))));
        let sk = stock_key(line.supply_w, line.item);
        let stock = tx!(db, txn, db.get_for_update(txn, t.stock, sk).await);
        let mut stock = tx!(
            db,
            txn,
            StockRow::decode(&tx!(db, txn, need(stock, "stock")))
        );
        stock.qty -= line.qty as i32;
        if stock.qty < 10 {
            stock.qty += 91;
        }
        stock.ytd += line.qty as u32;
        stock.order_cnt += 1;
        if line.supply_w != w {
            stock.remote_cnt += 1;
        }
        tx!(db, txn, db.update(txn, t.stock, sk, &stock.encode()).await);
        let amount = item.price_cents as u64 * line.qty as u64;
        total += amount;
        let ol = OrderLineRow {
            item: line.item as u32,
            supply_w: line.supply_w as u32,
            qty: line.qty,
            amount_cents: amount as u32,
        };
        tx!(
            db,
            txn,
            db.insert(
                txn,
                t.order_line,
                order_line_key(w, d, o_id, ol_no),
                &ol.encode()
            )
            .await
        );
    }
    if rollback {
        // The spec's invalid-item case: everything above is rolled back.
        db.abort(txn).await?;
        return Ok(());
    }
    let orow = OrderRow {
        c_id: c as u32,
        carrier: 0,
        ol_cnt: lines.len() as u8,
        total_cents: total as u32,
    };
    tx!(
        db,
        txn,
        db.insert(txn, t.orders, order_key(w, d, o_id), &orow.encode())
            .await
    );
    tx!(
        db,
        txn,
        db.insert(txn, t.new_order, order_key(w, d, o_id), &[1u8])
            .await
    );
    // Remember the customer's latest order for Order-Status.
    let ck = cust_key(w, d, c);
    let cust = tx!(db, txn, db.get_for_update(txn, t.customer, ck).await);
    let mut cust = tx!(
        db,
        txn,
        CustomerRow::decode(&tx!(db, txn, need(cust, "customer")))
    );
    cust.last_o_id = o_id as u32;
    tx!(
        db,
        txn,
        db.update(txn, t.customer, ck, &cust.encode()).await
    );
    db.commit(txn).await
}

async fn payment(
    db: &Database,
    t: &TpccTables,
    w: u64,
    d: u64,
    c: u64,
    amount_cents: u32,
    history_key: Key,
) -> DbResult<()> {
    let txn = db.begin().await?;
    // Lock order: warehouse → district → customer.
    let wrow = tx!(db, txn, db.get_for_update(txn, t.warehouse, w).await);
    let mut wrow = tx!(
        db,
        txn,
        WarehouseRow::decode(&tx!(db, txn, need(wrow, "warehouse")))
    );
    wrow.ytd_cents += amount_cents as u64;
    tx!(
        db,
        txn,
        db.update(txn, t.warehouse, w, &wrow.encode()).await
    );
    let dk = dist_key(w, d);
    let drow = tx!(db, txn, db.get_for_update(txn, t.district, dk).await);
    let mut drow = tx!(
        db,
        txn,
        DistrictRow::decode(&tx!(db, txn, need(drow, "district")))
    );
    drow.ytd_cents += amount_cents as u64;
    tx!(
        db,
        txn,
        db.update(txn, t.district, dk, &drow.encode()).await
    );
    let ck = cust_key(w, d, c);
    let crow = tx!(db, txn, db.get_for_update(txn, t.customer, ck).await);
    let mut crow = tx!(
        db,
        txn,
        CustomerRow::decode(&tx!(db, txn, need(crow, "customer")))
    );
    crow.balance_cents -= amount_cents as i64;
    crow.ytd_payment_cents += amount_cents as u64;
    crow.payment_cnt += 1;
    tx!(
        db,
        txn,
        db.update(txn, t.customer, ck, &crow.encode()).await
    );
    let mut hist = Vec::new();
    put_u64(&mut hist, ck);
    put_u32(&mut hist, amount_cents);
    tx!(db, txn, db.insert(txn, t.history, history_key, &hist).await);
    db.commit(txn).await
}

async fn order_status(db: &Database, t: &TpccTables, w: u64, d: u64, c: u64) -> DbResult<()> {
    let txn = db.begin().await?;
    let ck = cust_key(w, d, c);
    let crow = tx!(db, txn, db.get(t.customer, ck).await);
    let crow = tx!(
        db,
        txn,
        CustomerRow::decode(&tx!(db, txn, need(crow, "customer")))
    );
    if crow.last_o_id != 0 {
        let ok = order_key(w, d, crow.last_o_id as u64);
        if let Some(orow) = tx!(db, txn, db.get(t.orders, ok).await) {
            let orow = tx!(db, txn, OrderRow::decode(&orow));
            for ol in 1..=orow.ol_cnt as u64 {
                let _ = tx!(
                    db,
                    txn,
                    db.get(
                        t.order_line,
                        order_line_key(w, d, crow.last_o_id as u64, ol)
                    )
                    .await
                );
            }
        }
    }
    db.commit(txn).await
}

async fn delivery(db: &Database, t: &TpccTables, w: u64, d: u64, carrier: u8) -> DbResult<()> {
    let txn = db.begin().await?;
    let dk = dist_key(w, d);
    let drow = tx!(db, txn, db.get_for_update(txn, t.district, dk).await);
    let mut drow = tx!(
        db,
        txn,
        DistrictRow::decode(&tx!(db, txn, need(drow, "district")))
    );
    if drow.next_deliv_o_id >= drow.next_o_id {
        // Nothing to deliver.
        return db.commit(txn).await;
    }
    let o_id = drow.next_deliv_o_id as u64;
    drow.next_deliv_o_id += 1;
    tx!(
        db,
        txn,
        db.update(txn, t.district, dk, &drow.encode()).await
    );
    let ok = order_key(w, d, o_id);
    // The order may be missing if its New-Order rolled back; skip then.
    if let Some(orow_bytes) = tx!(db, txn, db.get_for_update(txn, t.orders, ok).await) {
        let mut orow = tx!(db, txn, OrderRow::decode(&orow_bytes));
        orow.carrier = carrier;
        tx!(db, txn, db.update(txn, t.orders, ok, &orow.encode()).await);
        if tx!(db, txn, db.get(t.new_order, ok).await).is_some() {
            tx!(db, txn, db.delete(txn, t.new_order, ok).await);
        }
        let ck = cust_key(w, d, orow.c_id as u64);
        let crow = tx!(db, txn, db.get_for_update(txn, t.customer, ck).await);
        let mut crow = tx!(
            db,
            txn,
            CustomerRow::decode(&tx!(db, txn, need(crow, "customer")))
        );
        crow.balance_cents += orow.total_cents as i64;
        crow.delivery_cnt += 1;
        tx!(
            db,
            txn,
            db.update(txn, t.customer, ck, &crow.encode()).await
        );
    }
    db.commit(txn).await
}

async fn stock_level(
    db: &Database,
    t: &TpccTables,
    w: u64,
    d: u64,
    threshold: i32,
) -> DbResult<()> {
    let txn = db.begin().await?;
    let dk = dist_key(w, d);
    let drow = tx!(db, txn, db.get(t.district, dk).await);
    let drow = tx!(
        db,
        txn,
        DistrictRow::decode(&tx!(db, txn, need(drow, "district")))
    );
    let newest = drow.next_o_id.saturating_sub(1) as u64;
    let oldest = newest.saturating_sub(19).max(1);
    let mut low = 0u32;
    if newest >= oldest {
        // One ordered index range scan over the last 20 orders' lines —
        // TPC-C's join done the way a real engine would.
        let lines = tx!(
            db,
            txn,
            db.scan_range(
                t.order_line,
                order_line_key(w, d, oldest, 0),
                order_line_key(w, d, newest, 0xFF),
                20 * 16,
            )
            .await
        );
        for (_key, bytes) in lines {
            let olrow = tx!(db, txn, OrderLineRow::decode(&bytes));
            let sk = stock_key(w, olrow.item as u64);
            if let Some(srow) = tx!(db, txn, db.get(t.stock, sk).await) {
                let srow = tx!(db, txn, StockRow::decode(&srow));
                if srow.qty < threshold {
                    low += 1;
                }
            }
        }
    }
    let _ = low;
    db.commit(txn).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_dbengine::DbConfig;
    use rapilog_simcore::{DomainId, Sim, SimCtx};
    use rapilog_simdisk::{specs, BlockDevice, Disk};
    use std::cell::Cell as StdCell;
    use std::rc::Rc;

    #[test]
    fn key_packing_is_injective_in_range() {
        let mut seen = std::collections::HashSet::new();
        for w in 1..=2 {
            for d in 1..=10 {
                assert!(seen.insert(dist_key(w, d)));
                for c in 1..=50 {
                    assert!(seen.insert(cust_key(w, d, c)));
                }
                for o in 1..=30 {
                    assert!(seen.insert(order_key(w, d, o)));
                    for ol in 1..=15 {
                        assert!(seen.insert(order_line_key(w, d, o, ol)));
                    }
                }
            }
            for i in 1..=100 {
                assert!(seen.insert(stock_key(w, i)));
            }
        }
    }

    #[test]
    fn row_codecs_roundtrip() {
        let w = WarehouseRow {
            tax_bp: 1234,
            ytd_cents: 999_999,
        };
        assert_eq!(WarehouseRow::decode(&w.encode()).unwrap(), w);
        let d = DistrictRow {
            tax_bp: 1,
            ytd_cents: 2,
            next_o_id: 3,
            next_deliv_o_id: 4,
        };
        assert_eq!(DistrictRow::decode(&d.encode()).unwrap(), d);
        let c = CustomerRow {
            balance_cents: -5000,
            ytd_payment_cents: 10,
            payment_cnt: 3,
            delivery_cnt: 1,
            last_o_id: 42,
        };
        assert_eq!(CustomerRow::decode(&c.encode()).unwrap(), c);
        let s = StockRow {
            qty: -5,
            ytd: 2,
            order_cnt: 3,
            remote_cnt: 4,
        };
        assert_eq!(StockRow::decode(&s.encode()).unwrap(), s);
        let o = OrderRow {
            c_id: 9,
            carrier: 2,
            ol_cnt: 7,
            total_cents: 12345,
        };
        assert_eq!(OrderRow::decode(&o.encode()).unwrap(), o);
        let ol = OrderLineRow {
            item: 1,
            supply_w: 2,
            qty: 3,
            amount_cents: 4,
        };
        assert_eq!(OrderLineRow::decode(&ol.encode()).unwrap(), ol);
        assert!(CustomerRow::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn nurand_stays_in_range_and_skews() {
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = nurand(&mut rng, 1023, 1, 3000);
            assert!((1..=3000).contains(&v));
        }
    }

    #[test]
    fn generate_follows_the_mix() {
        let mut rng = SimRng::seed_from_u64(11);
        let scale = TpccScale::small();
        let mut counts = [0usize; 5];
        let n = 20_000;
        for seq in 0..n {
            counts[generate(&mut rng, &scale, 1, seq as u64).kind()] += 1;
        }
        let frac = |i: usize| counts[i] as f64 / n as f64;
        assert!((frac(0) - 0.45).abs() < 0.02, "new-order {}", frac(0));
        assert!((frac(1) - 0.43).abs() < 0.02, "payment {}", frac(1));
        for k in 2..5 {
            assert!((frac(k) - 0.04).abs() < 0.01, "kind {k}: {}", frac(k));
        }
    }

    #[test]
    fn new_order_lines_are_sorted_for_lock_ordering() {
        let mut rng = SimRng::seed_from_u64(3);
        let scale = TpccScale::small();
        for seq in 0..200 {
            if let TxnParams::NewOrder { lines, .. } = generate(&mut rng, &scale, 1, seq) {
                let mut sorted = lines.clone();
                sorted.sort_by_key(|l| (l.supply_w, l.item));
                assert_eq!(lines, sorted);
            }
        }
    }

    fn with_loaded_db<F, Fut>(f: F)
    where
        F: FnOnce(SimCtx, Database, TpccTables, TpccScale) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let mut sim = Sim::new(21);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let scale = TpccScale::tiny();
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(512 << 20)));
            let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(256 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &table_defs(&scale),
                data,
                log,
                DomainId::ROOT,
            )
            .await
            .expect("create");
            let mut rng = SimRng::seed_from_u64(1);
            let t = load(&db, &scale, &mut rng).await.expect("load");
            f(c2.clone(), db.clone(), t, scale).await;
            db.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn loader_populates_all_tables() {
        with_loaded_db(|_ctx, db, t, scale| async move {
            assert_eq!(db.row_count(t.warehouse), scale.warehouses);
            assert_eq!(db.row_count(t.district), scale.warehouses * scale.districts);
            assert_eq!(
                db.row_count(t.customer),
                scale.warehouses * scale.districts * scale.customers_per_district
            );
            assert_eq!(db.row_count(t.item), scale.items);
            assert_eq!(db.row_count(t.stock), scale.warehouses * scale.items);
        });
    }

    #[test]
    fn new_order_advances_district_and_writes_lines() {
        with_loaded_db(|_ctx, db, t, _scale| async move {
            let lines = vec![
                LineInput {
                    item: 1,
                    supply_w: 1,
                    qty: 3,
                },
                LineInput {
                    item: 2,
                    supply_w: 1,
                    qty: 1,
                },
            ];
            new_order(&db, &t, 1, 1, 1, &lines, false).await.unwrap();
            let d =
                DistrictRow::decode(&db.get(t.district, dist_key(1, 1)).await.unwrap().unwrap())
                    .unwrap();
            assert_eq!(d.next_o_id, 2);
            let o = OrderRow::decode(&db.get(t.orders, order_key(1, 1, 1)).await.unwrap().unwrap())
                .unwrap();
            assert_eq!(o.ol_cnt, 2);
            assert!(db
                .get(t.new_order, order_key(1, 1, 1))
                .await
                .unwrap()
                .is_some());
            assert!(db
                .get(t.order_line, order_line_key(1, 1, 1, 1))
                .await
                .unwrap()
                .is_some());
            let c = CustomerRow::decode(
                &db.get(t.customer, cust_key(1, 1, 1))
                    .await
                    .unwrap()
                    .unwrap(),
            )
            .unwrap();
            assert_eq!(c.last_o_id, 1);
        });
    }

    #[test]
    fn new_order_rollback_leaves_no_trace() {
        with_loaded_db(|_ctx, db, t, _scale| async move {
            let lines = vec![LineInput {
                item: 1,
                supply_w: 1,
                qty: 3,
            }];
            let stock_before =
                StockRow::decode(&db.get(t.stock, stock_key(1, 1)).await.unwrap().unwrap())
                    .unwrap();
            new_order(&db, &t, 1, 1, 1, &lines, true).await.unwrap();
            let d =
                DistrictRow::decode(&db.get(t.district, dist_key(1, 1)).await.unwrap().unwrap())
                    .unwrap();
            assert_eq!(d.next_o_id, 1, "district counter rolled back");
            assert!(db
                .get(t.orders, order_key(1, 1, 1))
                .await
                .unwrap()
                .is_none());
            let stock_after =
                StockRow::decode(&db.get(t.stock, stock_key(1, 1)).await.unwrap().unwrap())
                    .unwrap();
            assert_eq!(stock_before, stock_after, "stock rolled back");
        });
    }

    #[test]
    fn payment_moves_money_and_writes_history() {
        with_loaded_db(|_ctx, db, t, _scale| async move {
            payment(&db, &t, 1, 1, 1, 5000, 42).await.unwrap();
            let w = WarehouseRow::decode(&db.get(t.warehouse, 1).await.unwrap().unwrap()).unwrap();
            assert_eq!(w.ytd_cents, 5000);
            let c = CustomerRow::decode(
                &db.get(t.customer, cust_key(1, 1, 1))
                    .await
                    .unwrap()
                    .unwrap(),
            )
            .unwrap();
            assert_eq!(c.balance_cents, -6000);
            assert_eq!(c.payment_cnt, 1);
            assert!(db.get(t.history, 42).await.unwrap().is_some());
        });
    }

    #[test]
    fn delivery_processes_oldest_order() {
        with_loaded_db(|_ctx, db, t, _scale| async move {
            let lines = vec![LineInput {
                item: 1,
                supply_w: 1,
                qty: 2,
            }];
            new_order(&db, &t, 1, 1, 3, &lines, false).await.unwrap();
            delivery(&db, &t, 1, 1, 7).await.unwrap();
            let o = OrderRow::decode(&db.get(t.orders, order_key(1, 1, 1)).await.unwrap().unwrap())
                .unwrap();
            assert_eq!(o.carrier, 7);
            assert!(
                db.get(t.new_order, order_key(1, 1, 1))
                    .await
                    .unwrap()
                    .is_none(),
                "new-order entry consumed"
            );
            let c = CustomerRow::decode(
                &db.get(t.customer, cust_key(1, 1, 3))
                    .await
                    .unwrap()
                    .unwrap(),
            )
            .unwrap();
            assert_eq!(c.delivery_cnt, 1);
            // Delivering again: nothing left.
            delivery(&db, &t, 1, 1, 8).await.unwrap();
            let d =
                DistrictRow::decode(&db.get(t.district, dist_key(1, 1)).await.unwrap().unwrap())
                    .unwrap();
            assert_eq!(d.next_deliv_o_id, 2);
        });
    }

    #[test]
    fn read_only_transactions_commit() {
        with_loaded_db(|_ctx, db, t, _scale| async move {
            let lines = vec![LineInput {
                item: 2,
                supply_w: 1,
                qty: 2,
            }];
            new_order(&db, &t, 1, 2, 5, &lines, false).await.unwrap();
            order_status(&db, &t, 1, 2, 5).await.unwrap();
            stock_level(&db, &t, 1, 2, 15).await.unwrap();
            // On a customer with no orders, too.
            order_status(&db, &t, 1, 1, 9).await.unwrap();
        });
    }
}
