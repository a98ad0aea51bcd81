//! Limited ordered scans — an extension beyond the paper.
//!
//! YCSB-E's native operation is "scan the next N keys from a start key",
//! which a `[low, high]` range scan can only approximate. `scan_n` is the
//! one range walk, [`node_engine::walk::scan`], from the root in its
//! row-bounded mode: each round reads the leading leaves of a key-ordered
//! frontier together with the next inner node, so the cost tracks the
//! result size, not the tree size.

use node_engine::walk::{self, Rows, Tracked};
use obs::{OpKind, Phase};

use crate::client::SphinxClient;
use crate::error::SphinxError;

impl SphinxClient {
    /// Returns up to `limit` entries with key ≥ `low`, in ascending key
    /// order — the "scan N next rows" operation of YCSB-E.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors; torn leaf reads and nodes caught mid
    /// type-switch are retried internally, like [`SphinxClient::scan`].
    ///
    /// # Examples
    ///
    /// ```
    /// # use dm_sim::{ClusterConfig, DmCluster};
    /// # use sphinx::{SphinxConfig, SphinxIndex};
    /// # fn main() -> Result<(), sphinx::SphinxError> {
    /// # let cluster = DmCluster::new(ClusterConfig::default());
    /// # let index = SphinxIndex::create(&cluster, SphinxConfig::default())?;
    /// # let mut client = index.client(0)?;
    /// for word in ["ant", "bee", "cat", "dog", "eel"] {
    ///     client.insert(word.as_bytes(), b"v")?;
    /// }
    /// let next_three = client.scan_n(b"bee", 3)?;
    /// let keys: Vec<&[u8]> = next_three.iter().map(|(k, _)| k.as_slice()).collect();
    /// assert_eq!(keys, vec![b"bee".as_slice(), b"cat", b"dog"]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn scan_n(&mut self, low: &[u8], limit: usize) -> Result<Rows, SphinxError> {
        self.stats.scans += 1;
        self.obs_begin(OpKind::Scan);
        let mut from_root = || {
            let (_, root, _) = self.locate_entry(&[], 0)?;
            self.obs_phase(Phase::Traversal);
            let root = Tracked::root(root);
            Ok(walk::scan(self, &root, low, None, Some(limit))?)
        };
        let r = from_root();
        self.op_exit();
        r
    }
}

#[cfg(test)]
mod tests {
    use crate::{SphinxConfig, SphinxIndex};
    use dm_sim::{ClusterConfig, DmCluster};

    fn setup(n: u64) -> crate::SphinxClient {
        let cluster = DmCluster::new(ClusterConfig::default());
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let mut client = index.client(0).unwrap();
        for i in 0..n {
            client
                .insert(format!("scan-{i:05}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        client
    }

    #[test]
    fn scan_n_returns_sorted_window() {
        let mut client = setup(300);
        let hits = client.scan_n(b"scan-00100", 25).unwrap();
        assert_eq!(hits.len(), 25);
        for (i, (k, _)) in hits.iter().enumerate() {
            assert_eq!(k, format!("scan-{:05}", 100 + i).as_bytes(), "position {i}");
        }
    }

    #[test]
    fn scan_n_from_between_keys_and_past_end() {
        let mut client = setup(50);
        // Start key absent: the next larger key opens the window.
        let hits = client.scan_n(b"scan-00010x", 3).unwrap();
        assert_eq!(hits[0].0, b"scan-00011".to_vec());
        // Window larger than the remaining tail.
        let tail = client.scan_n(b"scan-00048", 10).unwrap();
        assert_eq!(tail.len(), 2);
        // Start past everything.
        assert!(client.scan_n(b"zzz", 5).unwrap().is_empty());
        // Zero limit.
        assert!(client.scan_n(b"", 0).unwrap().is_empty());
    }

    #[test]
    fn scan_n_skips_deleted() {
        let mut client = setup(20);
        client.remove(b"scan-00005").unwrap();
        let hits = client.scan_n(b"scan-00004", 3).unwrap();
        let keys: Vec<Vec<u8>> = hits.into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                b"scan-00004".to_vec(),
                b"scan-00006".to_vec(),
                b"scan-00007".to_vec()
            ]
        );
    }

    #[test]
    fn scan_n_agrees_with_range_scan() {
        let mut client = setup(400);
        let want: Vec<(Vec<u8>, Vec<u8>)> = client.scan(b"scan-00150", b"scan-00169").unwrap();
        let got = client.scan_n(b"scan-00150", 20).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn scan_n_cost_tracks_result_size_not_tree_size() {
        let mut client = setup(2000);
        let before = client.net_stats().round_trips;
        let hits = client.scan_n(b"scan-01000", 10).unwrap();
        let rts = client.net_stats().round_trips - before;
        assert_eq!(hits.len(), 10);
        assert!(
            rts < 25,
            "10-row scan over 2000 keys took {rts} round trips"
        );
    }
}
