//! The independent checker: expected answers come from the benchmark's own
//! union-find and BFS over its own edge sets, never from the library.

/// Union-find with path halving and union by size.
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    pub fn union(&mut self, a: u32, b: u32) {
        let (mut a, mut b) = (self.find(a), self.find(b));
        if a == b {
            return;
        }
        if self.size[a as usize] < self.size[b as usize] {
            std::mem::swap(&mut a, &mut b);
        }
        self.parent[b as usize] = a;
        self.size[a as usize] += self.size[b as usize];
    }

    /// Component label of every vertex.
    pub fn labels(&mut self) -> Vec<u32> {
        (0..self.parent.len() as u32)
            .map(|v| self.find(v))
            .collect()
    }
}

/// Component labels of the graph `(n, edges)`.
pub fn components(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut uf = UnionFind::new(n);
    for &(u, v) in edges {
        uf.union(u, v);
    }
    uf.labels()
}

/// A dynamic graph answered by BFS: the sequential oracle for workloads
/// whose components are small enough to search on every operation.
pub struct BfsGraph {
    adj: Vec<Vec<u32>>,
    mark: Vec<u32>,
    epoch: u32,
    queue: Vec<u32>,
}

impl BfsGraph {
    pub fn new(n: usize) -> Self {
        BfsGraph {
            adj: vec![Vec::new(); n],
            mark: vec![0; n],
            epoch: 0,
            queue: Vec::new(),
        }
    }

    pub fn has(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].contains(&v)
    }

    /// Adds `(u, v)`; returns `false` if it was present.
    pub fn add(&mut self, u: u32, v: u32) -> bool {
        if u == v || self.has(u, v) {
            return false;
        }
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);
        true
    }

    /// Removes `(u, v)`; returns `false` if it was absent.
    pub fn remove(&mut self, u: u32, v: u32) -> bool {
        let Some(i) = self.adj[u as usize].iter().position(|&x| x == v) else {
            return false;
        };
        self.adj[u as usize].swap_remove(i);
        let j = self.adj[v as usize].iter().position(|&x| x == u).unwrap();
        self.adj[v as usize].swap_remove(j);
        true
    }

    pub fn connected(&mut self, u: u32, v: u32) -> bool {
        if u == v {
            return true;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.queue.clear();
        self.queue.push(u);
        self.mark[u as usize] = epoch;
        let mut head = 0;
        while head < self.queue.len() {
            let x = self.queue[head];
            head += 1;
            for &y in &self.adj[x as usize] {
                if y == v {
                    return true;
                }
                if self.mark[y as usize] != epoch {
                    self.mark[y as usize] = epoch;
                    self.queue.push(y);
                }
            }
        }
        false
    }

    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (u, list) in self.adj.iter().enumerate() {
            for &v in list {
                if (u as u32) < v {
                    out.push((u as u32, v));
                }
            }
        }
        out
    }
}

/// One answer the program gave that the oracle did not expect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mismatch {
    pub stage: &'static str,
    pub index: u64,
    pub u: u32,
    pub v: u32,
    pub expected: bool,
}

/// Compares answers against expectations and keeps the first few
/// mismatches as evidence.
#[derive(Default)]
pub struct Checker {
    pub checked: u64,
    pub wrong: u64,
    pub evidence: Vec<Mismatch>,
}

impl Checker {
    #[inline]
    pub fn check(
        &mut self,
        stage: &'static str,
        index: u64,
        u: u32,
        v: u32,
        expected: bool,
        got: bool,
    ) -> bool {
        self.checked += 1;
        if got == expected {
            return true;
        }
        self.wrong += 1;
        if self.evidence.len() < 8 {
            self.evidence.push(Mismatch {
                stage,
                index,
                u,
                v,
                expected,
            });
        }
        false
    }

    pub fn absorb(&mut self, other: Checker) {
        self.checked += other.checked;
        self.wrong += other.wrong;
        for m in other.evidence {
            if self.evidence.len() < 8 {
                self.evidence.push(m);
            }
        }
    }
}

/// Proves the checker can fail: answers for a small random graph are
/// checked once faithfully and once with exactly one answer flipped, and
/// the checker must report nothing, then exactly that one mismatch.
pub fn self_test() -> Result<(), String> {
    let mut rng = crate::rng::Rng::new(0x5E1F);
    let n = 64;
    let edges: Vec<(u32, u32)> = (0..48)
        .map(|_| {
            let (a, b) = rng.pair(n);
            (a as u32, b as u32)
        })
        .collect();
    let labels = components(n, &edges);
    let mut graph = BfsGraph::new(n);
    for &(u, v) in &edges {
        graph.add(u, v);
    }
    let pairs: Vec<(u32, u32)> = (0..200)
        .map(|_| {
            let (a, b) = rng.pair(n);
            (a as u32, b as u32)
        })
        .collect();
    let flip = 137;
    for flipped in [None, Some(flip)] {
        let mut checker = Checker::default();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let expected = labels[u as usize] == labels[v as usize];
            let mut got = graph.connected(u, v);
            if flipped == Some(i) {
                got = !got;
            }
            checker.check("self-test", i as u64, u, v, expected, got);
        }
        let want: Vec<Mismatch> = flipped
            .map(|i| {
                let (u, v) = pairs[i];
                Mismatch {
                    stage: "self-test",
                    index: i as u64,
                    u,
                    v,
                    expected: labels[u as usize] == labels[v as usize],
                }
            })
            .into_iter()
            .collect();
        if checker.evidence != want || checker.wrong != want.len() as u64 {
            return Err(format!(
                "checker self-test: flipped {flipped:?}, reported {:?}",
                checker.evidence
            ));
        }
    }
    Ok(())
}
