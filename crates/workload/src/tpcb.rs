//! TPC-B-style workload (pgbench's default scenario).
//!
//! Each transaction updates one account, its teller and its branch, and
//! appends a history row — four writes and a commit, the classic
//! commit-latency-bound OLTP kernel. The paper uses pgbench-style load to
//! isolate the logging path from TPC-C's wider working set.

use rapilog_simcore::rng::SimRng;

use rapilog_dbengine::util::{put_u32, put_u64, Cursor};
use rapilog_dbengine::{Database, DbError, Key, TableDef, TableId};

/// Result alias.
pub type DbResult<T> = Result<T, DbError>;

/// Population scale (pgbench's `-s`): 1 branch, 10 tellers, 100 000
/// accounts per scale unit (accounts scaled down by default for speed).
#[derive(Debug, Clone, Copy)]
pub struct TpcbScale {
    /// Branches.
    pub branches: u64,
    /// Tellers per branch.
    pub tellers_per_branch: u64,
    /// Accounts per branch.
    pub accounts_per_branch: u64,
    /// History capacity.
    pub history_capacity: u64,
}

impl TpcbScale {
    /// One branch, pgbench-proportioned but with 10k accounts.
    pub fn small() -> TpcbScale {
        TpcbScale {
            branches: 1,
            tellers_per_branch: 10,
            accounts_per_branch: 10_000,
            history_capacity: 200_000,
        }
    }
}

/// Resolved table ids.
#[derive(Debug, Clone, Copy)]
pub struct TpcbTables {
    /// Branches.
    pub branches: TableId,
    /// Tellers.
    pub tellers: TableId,
    /// Accounts.
    pub accounts: TableId,
    /// History.
    pub history: TableId,
}

/// Table definitions for [`Database::create`]. Account rows are padded to
/// pgbench's 100-byte tuples (filler column included).
pub fn table_defs(scale: &TpcbScale) -> Vec<TableDef> {
    vec![
        TableDef {
            name: "pgb_branches".to_string(),
            slot_size: 16,
            max_rows: scale.branches,
        },
        TableDef {
            name: "pgb_tellers".to_string(),
            slot_size: 16,
            max_rows: scale.branches * scale.tellers_per_branch,
        },
        TableDef {
            name: "pgb_accounts".to_string(),
            slot_size: 100,
            max_rows: scale.branches * scale.accounts_per_branch,
        },
        TableDef {
            name: "pgb_history".to_string(),
            slot_size: 32,
            max_rows: scale.history_capacity,
        },
    ]
}

fn encode_balance(balance: i64) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64(&mut b, balance as u64);
    b
}

fn decode_balance(bytes: &[u8]) -> DbResult<i64> {
    Cursor::new(bytes)
        .u64()
        .map(|v| v as i64)
        .ok_or_else(|| DbError::Corrupt("tpcb balance".to_string()))
}

impl TpcbTables {
    /// Resolves the table ids.
    pub fn resolve(db: &Database) -> DbResult<TpcbTables> {
        let get = |name: &str| {
            db.table(name)
                .ok_or_else(|| DbError::Corrupt(format!("missing table {name}")))
        };
        Ok(TpcbTables {
            branches: get("pgb_branches")?,
            tellers: get("pgb_tellers")?,
            accounts: get("pgb_accounts")?,
            history: get("pgb_history")?,
        })
    }
}

/// Populates the schema.
pub async fn load(db: &Database, scale: &TpcbScale) -> DbResult<TpcbTables> {
    let t = TpcbTables::resolve(db)?;
    let mut txn = db.begin().await?;
    let mut batch = 0usize;
    for b in 1..=scale.branches {
        db.insert(txn, t.branches, b, &encode_balance(0)).await?;
        for tl in 0..scale.tellers_per_branch {
            db.insert(txn, t.tellers, b * 1_000 + tl, &encode_balance(0))
                .await?;
        }
        for a in 0..scale.accounts_per_branch {
            db.insert(txn, t.accounts, b * 10_000_000 + a, &encode_balance(0))
                .await?;
            batch += 1;
            if batch.is_multiple_of(1000) {
                db.commit(txn).await?;
                txn = db.begin().await?;
            }
        }
    }
    db.commit(txn).await?;
    Ok(t)
}

/// Parameters of one TPC-B transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpcbParams {
    /// Branch.
    pub branch: u64,
    /// Teller key.
    pub teller: Key,
    /// Account key.
    pub account: Key,
    /// Delta in cents (may be negative).
    pub delta: i64,
    /// Unique history key.
    pub history_key: Key,
}

/// Draws one transaction.
pub fn generate(rng: &mut SimRng, scale: &TpcbScale, client_tag: u64, seq: u64) -> TpcbParams {
    let branch = rng.gen_range(1..=scale.branches);
    TpcbParams {
        branch,
        teller: branch * 1_000 + rng.gen_range(0..scale.tellers_per_branch),
        account: branch * 10_000_000 + rng.gen_range(0..scale.accounts_per_branch),
        delta: rng.gen_range(-5000..=5000),
        history_key: (client_tag << 32) | (seq & 0xFFFF_FFFF),
    }
}

/// Executes one transaction (update account, teller, branch; insert
/// history; commit).
pub async fn execute(db: &Database, t: &TpcbTables, p: &TpcbParams) -> DbResult<()> {
    let txn = db.begin().await?;
    macro_rules! tx {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(err) => {
                    let _ = db.abort(txn).await;
                    return Err(err);
                }
            }
        };
    }
    // Lock order: account → teller → branch (pgbench's statement order).
    for (table, key) in [
        (t.accounts, p.account),
        (t.tellers, p.teller),
        (t.branches, p.branch),
    ] {
        let row = tx!(db.get_for_update(txn, table, key).await);
        let bal = tx!(decode_balance(&tx!(
            row.ok_or(DbError::NotFound(table, key))
        )));
        tx!(db
            .update(txn, table, key, &encode_balance(bal + p.delta))
            .await);
    }
    let mut hist = Vec::new();
    put_u64(&mut hist, p.account);
    put_u32(&mut hist, p.delta as u32);
    tx!(db.insert(txn, t.history, p.history_key, &hist).await);
    db.commit(txn).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_dbengine::DbConfig;
    use rapilog_simcore::{DomainId, Sim};
    use rapilog_simdisk::{specs, BlockDevice, Disk};
    use std::cell::Cell as StdCell;
    use std::rc::Rc;

    #[test]
    fn load_and_execute_moves_money_consistently() {
        let mut sim = Sim::new(31);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            // The history table gets real headroom: under RapiLog a single
            // simulated second commits tens of thousands of transactions,
            // each appending a history row.
            let scale = TpcbScale {
                branches: 1,
                tellers_per_branch: 2,
                accounts_per_branch: 100,
                history_capacity: 100_000,
            };
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(256 << 20)));
            let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(64 << 20)));
            let db = Database::create(
                &ctx,
                DbConfig::default(),
                &table_defs(&scale),
                data,
                log,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = load(&db, &scale).await.unwrap();
            assert_eq!(db.row_count(t.accounts), 100);
            let mut rng = SimRng::seed_from_u64(5);
            let mut expect_branch = 0i64;
            for seq in 0..50 {
                let p = generate(&mut rng, &scale, 7, seq);
                execute(&db, &t, &p).await.unwrap();
                expect_branch += p.delta;
            }
            let bal = decode_balance(&db.get(t.branches, 1).await.unwrap().unwrap()).unwrap();
            assert_eq!(bal, expect_branch, "branch balance sums all deltas");
            assert_eq!(db.row_count(t.history), 50);
            db.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn generate_keys_are_in_population() {
        let mut rng = SimRng::seed_from_u64(9);
        let scale = TpcbScale::small();
        for seq in 0..1000 {
            let p = generate(&mut rng, &scale, 1, seq);
            assert!((1..=scale.branches).contains(&p.branch));
            assert!(p.teller >= p.branch * 1000);
            assert!(p.teller < p.branch * 1000 + scale.tellers_per_branch);
            assert!(p.account >= p.branch * 10_000_000);
            assert!(p.account < p.branch * 10_000_000 + scale.accounts_per_branch);
        }
    }
}
