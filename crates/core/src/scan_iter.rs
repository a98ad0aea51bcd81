//! A streaming scan cursor: iterate a key range without materializing it.

use crate::client::SphinxClient;
use crate::error::SphinxError;

/// Default number of entries fetched per page.
const DEFAULT_PAGE: usize = 64;

/// A forward cursor over `key ≥ low`, paging through the index with
/// [`SphinxClient::scan_n`]. Created by [`SphinxClient::scan_iter`].
///
/// The cursor borrows the client (each page is a few round trips), yields
/// owned `(key, value)` pairs, and is resilient to concurrent inserts —
/// new keys behind the cursor are skipped, new keys ahead are seen, like
/// any cursor over a live index.
pub struct ScanIter<'a> {
    client: &'a mut SphinxClient,
    /// Inclusive resume point: the next page starts at this key (`None`:
    /// the range is exhausted).
    resume: Option<Vec<u8>>,
    buffer: std::vec::IntoIter<(Vec<u8>, Vec<u8>)>,
    page_size: usize,
}

impl SphinxClient {
    /// Returns a streaming cursor over all entries with key ≥ `low`, in
    /// ascending order.
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
    /// for i in 0..100u32 {
    ///     client.insert(format!("it-{i:03}").as_bytes(), &i.to_le_bytes())?;
    /// }
    /// let count = client
    ///     .scan_iter(b"it-050")
    ///     .take_while(Result::is_ok)
    ///     .count();
    /// assert_eq!(count, 50);
    /// # Ok(())
    /// # }
    /// ```
    pub fn scan_iter<'a>(&'a mut self, low: &[u8]) -> ScanIter<'a> {
        ScanIter {
            client: self,
            resume: Some(low.to_vec()),
            buffer: Vec::new().into_iter(),
            page_size: DEFAULT_PAGE,
        }
    }
}

impl ScanIter<'_> {
    /// Overrides the page size (entries fetched per round-trip group).
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size.max(1);
        self
    }
}

impl Iterator for ScanIter<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>), SphinxError>;

    /// Fetches the next page when the buffer runs dry. An error is the item
    /// of the call that met it and ends the cursor (`resume` is taken).
    fn next(&mut self) -> Option<Self::Item> {
        while self.buffer.as_slice().is_empty() {
            let low = self.resume.take()?;
            // One extra row: a full page then distinguishes "more remains"
            // from "exhausted", and the extra row's key is where the next
            // page starts.
            let mut page = match self.client.scan_n(&low, self.page_size.saturating_add(1)) {
                Ok(page) => page,
                Err(e) => return Some(Err(e)),
            };
            if page.len() > self.page_size {
                self.resume = page.pop().map(|(key, _)| key);
            }
            self.buffer = page.into_iter();
        }
        self.buffer.next().map(Ok)
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
                .insert(format!("cur-{i:05}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        client
    }

    #[test]
    fn streams_everything_in_order() {
        let mut client = setup(500);
        let keys: Vec<Vec<u8>> = client
            .scan_iter(b"")
            .with_page_size(37) // force several pages with awkward sizing
            .map(|r| r.unwrap().0)
            .collect();
        assert_eq!(keys.len(), 500);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(k, format!("cur-{i:05}").as_bytes());
        }
    }

    #[test]
    fn starts_mid_range_and_respects_take() {
        let mut client = setup(100);
        let first: Vec<Vec<u8>> = client
            .scan_iter(b"cur-00042")
            .take(5)
            .map(|r| r.unwrap().0)
            .collect();
        assert_eq!(first[0], b"cur-00042".to_vec());
        assert_eq!(first[4], b"cur-00046".to_vec());
    }

    #[test]
    fn empty_index_yields_nothing() {
        let cluster = DmCluster::new(ClusterConfig::default());
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let mut client = index.client(0).unwrap();
        assert_eq!(client.scan_iter(b"").count(), 0);
    }

    #[test]
    fn page_boundary_exactly_at_end() {
        let mut client = setup(64); // equals the default page size
        let before = client.net_stats().round_trips;
        let n = client
            .scan_iter(b"")
            .inspect(|r| assert!(r.is_ok()))
            .count();
        assert_eq!(n, 64);
        // The page's extra row came back absent: no second page is fetched
        // to read nothing.
        let cursor = client.net_stats().round_trips - before;
        let before = client.net_stats().round_trips;
        assert_eq!(client.scan_n(b"", 65).unwrap().len(), 64);
        assert_eq!(cursor, client.net_stats().round_trips - before);
    }
}
