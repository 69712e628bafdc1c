//! Exhaustive bounded exploration.
//!
//! Over a small configuration — N nodes, B blocks, read/write — there
//! are `(2·N·B)^L` traces of length L. [`explore`] enumerates *all* of
//! them up to a length bound, depth first, forking the lockstep
//! [`Checker`](crate::invariants::Checker) at every branch so each
//! prefix's work is done exactly once. Every reachable state within
//! the bound is therefore visited and checked against the full
//! invariant suite.
//!
//! At the CI configuration (2 nodes, 1 block, L = 8) the alphabet has
//! 4 symbols and the tree has 4 + 4² + … + 4⁸ = 87 380 states per
//! protocol point — small enough to sweep the whole protocol family on
//! every push, large enough to contain every classification pattern
//! the paper's Figure 3 can exhibit (promotion needs at most 5
//! references; demotion 2 more).
//!
//! Infinite caches never evict, so that sweep never reaches the
//! directory's copy-dropped rule. [`ExploreConfig::finite`] is the
//! sweep's second point: 2 nodes × 2 blocks through a 1-set × 1-way
//! cache, where every miss on one block evicts the other, explored to
//! its own bound of length 6 (8 symbols, so 8 + 8² + … + 8⁶ = 299 592
//! states per protocol point).

use std::time::{Duration, Instant};

use mcc_cache::{CacheConfig, CacheGeometry};
use mcc_core::Protocol;
use mcc_trace::{Addr, MemOp, MemRef, NodeId, Trace};

use crate::invariants::{CheckViolation, Checker, CheckerConfig, CHECK_BLOCK_SIZE};

/// A failing trace with the violation it provokes.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The protocol point that failed.
    pub protocol: Protocol,
    /// The (minimal, if shrunk) failing trace.
    pub trace: Trace,
    /// The invariant the trace breaks.
    pub violation: CheckViolation,
}

/// Bounds for one exhaustive exploration.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// The protocol point to explore.
    pub protocol: Protocol,
    /// Nodes in the configuration (alphabet factor).
    pub nodes: u16,
    /// Blocks in the configuration (alphabet factor).
    pub blocks: u64,
    /// Maximum trace length (tree depth).
    pub max_len: usize,
    /// Abort after visiting this many states (`complete` turns false).
    pub max_states: u64,
    /// Abort on a wall-clock budget (`complete` turns false).
    pub time_budget: Option<Duration>,
    /// Drive the fast hot-path engine instead of the reference
    /// `DirectoryEngine` under every checker. Both engines model every
    /// cache configuration.
    pub fast_engine: bool,
    /// Directory sharer-set representation every checker runs under.
    pub directory: mcc_core::DirectoryRepr,
    /// Per-node cache model; finite geometries reach the eviction
    /// (copy-dropped) paths.
    pub cache: CacheConfig,
}

impl ExploreConfig {
    /// The CI configuration: 2 nodes, 1 block, traces up to length 8,
    /// no state or time cap.
    pub fn new(protocol: Protocol) -> ExploreConfig {
        ExploreConfig {
            protocol,
            nodes: 2,
            blocks: 1,
            max_len: 8,
            max_states: u64::MAX,
            time_budget: None,
            fast_engine: false,
            directory: mcc_core::DirectoryRepr::FullMap,
            cache: CacheConfig::Infinite,
        }
    }

    /// The finite-cache point: 2 nodes, 2 blocks, a 1-set × 1-way
    /// cache (each node holds one line, so a miss on either block
    /// evicts the other), traces up to length 6.
    pub fn finite(protocol: Protocol) -> ExploreConfig {
        let one_line = CacheGeometry::new(CHECK_BLOCK_SIZE.bytes(), CHECK_BLOCK_SIZE, 1)
            .expect("a one-line geometry is valid");
        ExploreConfig {
            blocks: 2,
            max_len: 6,
            cache: CacheConfig::Finite(one_line),
            ..ExploreConfig::new(protocol)
        }
    }
}

/// What an exploration covered.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// States (trace prefixes) actually visited and checked.
    pub states: u64,
    /// Whether the whole bounded space was covered (false when a cap
    /// or a violation stopped the search early).
    pub complete: bool,
    /// The first violation encountered, if any.
    pub violation: Option<Counterexample>,
}

struct Search {
    alphabet: Vec<MemRef>,
    max_len: usize,
    max_states: u64,
    deadline: Option<Instant>,
    states: u64,
    truncated: bool,
}

/// Exhaustively explores every trace of length ≤ `config.max_len`.
pub fn explore(config: &ExploreConfig) -> ExploreOutcome {
    let mut alphabet = Vec::new();
    for node in 0..config.nodes {
        for block in 0..config.blocks {
            for op in [MemOp::Read, MemOp::Write] {
                alphabet.push(MemRef::new(
                    NodeId::new(node),
                    op,
                    Addr::new(block * CHECK_BLOCK_SIZE.bytes()),
                ));
            }
        }
    }
    let mut search = Search {
        alphabet,
        max_len: config.max_len,
        max_states: config.max_states,
        deadline: config.time_budget.map(|b| Instant::now() + b),
        states: 0,
        truncated: false,
    };
    let mut cc = CheckerConfig::new(config.protocol, config.nodes);
    cc.fast_engine = config.fast_engine;
    cc.directory = config.directory;
    cc.cache = config.cache;
    let root = Checker::new(&cc);
    let mut path = Vec::with_capacity(config.max_len);
    let violation = dfs(&root, &mut path, &mut search).map(|(trace, violation)| Counterexample {
        protocol: config.protocol,
        trace,
        violation,
    });
    ExploreOutcome {
        states: search.states,
        complete: !search.truncated && violation.is_none(),
        violation,
    }
}

fn dfs(
    checker: &Checker,
    path: &mut Vec<MemRef>,
    search: &mut Search,
) -> Option<(Trace, CheckViolation)> {
    if path.len() >= search.max_len {
        return None;
    }
    for i in 0..search.alphabet.len() {
        if search.states >= search.max_states
            || search.deadline.is_some_and(|d| Instant::now() >= d)
        {
            search.truncated = true;
            return None;
        }
        let r = search.alphabet[i];
        search.states += 1;
        path.push(r);
        let mut child = checker.fork();
        match child.check_step(r) {
            Err(violation) => {
                return Some((Trace::from(path.clone()), violation));
            }
            Ok(_) => {
                if let Some(found) = dfs(&child, path, search) {
                    return Some(found);
                }
            }
        }
        path.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_core::Protocol;

    #[test]
    fn small_exhaustive_sweep_is_clean_and_counts_states() {
        // 2 nodes × 1 block × r/w = 4 symbols; depth 4 → 4+16+64+256.
        let mut config = ExploreConfig::new(Protocol::Basic);
        config.max_len = 4;
        let out = explore(&config);
        assert!(out.complete);
        assert_eq!(out.states, 4 + 16 + 64 + 256);
        assert!(out.violation.is_none());
    }

    #[test]
    fn state_cap_truncates_without_failing() {
        let mut config = ExploreConfig::new(Protocol::Conventional);
        config.max_len = 6;
        config.max_states = 100;
        let out = explore(&config);
        assert!(!out.complete);
        assert_eq!(out.states, 100);
        assert!(out.violation.is_none());
    }

    #[test]
    fn finite_point_evicts_and_stays_clean_on_both_engines() {
        for fast_engine in [false, true] {
            let mut config = ExploreConfig::finite(Protocol::Aggressive);
            config.max_len = 3;
            config.fast_engine = fast_engine;
            let out = explore(&config);
            assert!(out.complete, "fast={fast_engine}");
            assert_eq!(out.states, 8 + 64 + 512);
            assert!(out.violation.is_none(), "fast={fast_engine}");
        }
    }

    #[test]
    fn two_block_alphabet_spreads_homes_across_nodes() {
        let mut config = ExploreConfig::new(Protocol::Aggressive);
        config.blocks = 2;
        config.max_len = 3;
        let out = explore(&config);
        assert!(out.complete);
        // 8 symbols: 8 + 64 + 512.
        assert_eq!(out.states, 8 + 64 + 512);
    }
}
