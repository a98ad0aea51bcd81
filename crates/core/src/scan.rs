//! Range scans (§IV "Scan"): root-down traversal with doorbell-batched
//! level reads — [`node_engine::walk::scan`] below the root this client
//! finds through its hash table.

use obs::{OpKind, Phase};

use crate::client::SphinxClient;
use crate::error::SphinxError;

impl SphinxClient {
    /// Returns every `(key, value)` with `low <= key <= high`, in
    /// ascending key order.
    ///
    /// The traversal starts from the root (found through the Inner Node
    /// Hash Table) and reads each level's nodes in one doorbell-batched
    /// round trip, hiding per-node latency exactly as the paper describes
    /// for YCSB-E.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors; torn leaf reads are retried
    /// internally.
    #[allow(clippy::type_complexity)]
    pub fn scan(
        &mut self,
        low: &[u8],
        high: &[u8],
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>, SphinxError> {
        self.stats.scans += 1;
        self.obs_begin(OpKind::Scan);
        let r = self.scan_inner(low, high);
        self.op_exit();
        r
    }

    #[allow(clippy::type_complexity)]
    fn scan_inner(
        &mut self,
        low: &[u8],
        high: &[u8],
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>, SphinxError> {
        if low > high {
            return Ok(Vec::new());
        }
        // Root via the hash table (prefix ε).
        let (_, root, _) = self.locate_entry(&[], 0)?;
        self.obs_phase(Phase::Traversal);
        Ok(node_engine::walk::scan(self, root, low, high)?)
    }
}
