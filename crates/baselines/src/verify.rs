//! Offline integrity verification for the baseline trees: the audit of
//! [`node_engine::walk::audit`] (shared with `sphinx::verify`), with no
//! per-node hook — the baselines have no hash table to cross-check.

use art_core::layout::Slot;

use crate::error::BaselineError;
use crate::index::BaselineIndex;

/// Outcome of [`BaselineIndex::verify`].
pub use node_engine::walk::AuditReport as BaselineIntegrityReport;

impl BaselineIndex {
    /// Audits the whole tree (run only while quiescent): header sanity,
    /// prefix-hash consistency (reconstructed from sampled leaves),
    /// dispatch-byte uniqueness, leaf checksums and prefix membership.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors; violations are reported in the result.
    pub fn verify(&self) -> Result<BaselineIntegrityReport, BaselineError> {
        let mut client = self.client(0)?;
        // Root slot from the meta word, bypassing caches.
        let word = client.dm.read_u64(self.meta().root_word)?;
        let Some(root) = Slot::decode(word) else {
            return Ok(BaselineIntegrityReport {
                problems: vec!["null root slot".into()],
                ..Default::default()
            });
        };
        Ok(node_engine::walk::audit(&mut client, root)?)
    }
}

#[cfg(test)]
mod tests {
    use crate::{BaselineConfig, BaselineIndex};
    use dm_sim::{ClusterConfig, DmCluster};

    #[test]
    fn both_baselines_verify_clean_after_churn() {
        for cfg in [BaselineConfig::art(), BaselineConfig::smart(1 << 20)] {
            let cluster = DmCluster::new(ClusterConfig {
                mn_capacity: 128 << 20,
                ..Default::default()
            });
            let index = BaselineIndex::create(&cluster, cfg).unwrap();
            let mut client = index.client(0).unwrap();
            for i in 0..1_500u64 {
                let key = format!("audit-{:05}", i * 37 % 3000);
                client.insert(key.as_bytes(), &i.to_le_bytes()).unwrap();
            }
            for i in (0..1_500u64).step_by(7) {
                let key = format!("audit-{:05}", i * 37 % 3000);
                let _ = client.remove(key.as_bytes()).unwrap();
            }
            let report = index.verify().unwrap();
            assert!(report.is_clean(), "{:?}", report.problems);
            assert!(report.inner_nodes > 5);
            assert!(report.leaves > 300);
        }
    }
}
