// Seeded inputs of every workload, and the reference answers the oracle
// checks deliveries and tables against.
//
// The library under test only ever sees what is generated here: the NEWS
// DTD's derived advertisements, a Set A subscription table (covering rate
// 0.9), a disjoint pool of fresh XPEs for control ops, and a pool of
// generated documents. The XPEs, the order the table is subscribed in, and
// the documents are one fixed corpus, like the paper's Set A; the run seed
// draws the order in which documents are published and control ops run.
// The same seed gives the same inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "adv/advertisement.hpp"
#include "util/rng.hpp"
#include "xml/paths.hpp"
#include "xpath/xpe.hpp"

namespace perfbench {

struct InputOptions {
  std::size_t table_size = 4000;
  std::size_t fresh = 400;
  std::size_t docs = 400;
  /// Seed of the corpus: the XPE set and the document pool.
  std::uint64_t corpus_seed = 1;
};

struct Inputs {
  std::vector<xroute::Advertisement> ads;
  /// Every XPE a control op can name: [0, table_size) is the initial table
  /// in subscription order, the rest is the fresh pool, disjoint from it.
  std::vector<xroute::Xpe> xpes;
  std::size_t table_size = 0;
  double covering_rate = 0.0;
  /// Serialised documents in publication order, and their root-to-leaf
  /// paths (extraction order).
  std::vector<std::string> docs;
  std::vector<std::vector<xroute::Path>> doc_paths;
  /// doc_keys[d][k]: id of the element sequence of doc_paths[d][k] among
  /// the pool's distinct element sequences (the oracle's memo key).
  std::vector<std::vector<std::uint32_t>> doc_keys;
  std::vector<xroute::Path> distinct_paths;
};

/// The XPE half of the corpus: the Set A table and the fresh pool, in
/// generation order. Building it is the slow part of input generation, so
/// the harness builds it once per build directory into a file that every
/// run reads; every run then interns symbols in the same order.
struct XpeCorpus {
  std::vector<xroute::Xpe> table;
  std::vector<xroute::Xpe> fresh;
  double covering_rate = 0.0;
};

XpeCorpus make_xpe_corpus(const InputOptions& options);
/// One XPE per line after a header; throws if an XPE would not read back
/// equal.
void save_xpe_corpus(const XpeCorpus& corpus, const std::string& file);
XpeCorpus load_xpe_corpus(const std::string& file,
                          const InputOptions& options);

/// Everything a run needs: advertisements, the corpus in seeded order and
/// the document pool.
Inputs make_inputs(std::uint64_t seed, const InputOptions& options,
                   XpeCorpus corpus);

/// Reference answer for "which paths does the subscriber's table want?":
/// for every distinct element sequence of the document pool, the number of
/// live XPEs whose matches() accepts it. Kept current under subscribe and
/// unsubscribe, so it answers for a table that changes. The generated XPEs
/// carry no predicates, so matching depends on the element names alone.
class TableOracle {
 public:
  explicit TableOracle(const Inputs& inputs);

  void add(const xroute::Xpe& xpe);
  void remove(const xroute::Xpe& xpe);

  /// Path ids of pool document `doc` that the live table wants, ascending.
  std::vector<std::uint32_t> wanted(std::size_t doc) const;

 private:
  const Inputs& inputs_;
  std::vector<std::int32_t> live_matches_;
};

/// The deterministic control-op script at table size N. Round r takes
/// the r-th slice of `pairs` table XPEs (in subscription order) and of
/// `pairs` fresh XPEs, so no XPE repeats within a run. Its first cycle
/// subscribes each fresh XPE and then unsubscribes one of the table XPEs;
/// its second re-subscribes each table XPE and then unsubscribes one of
/// the fresh ones. Every op pair leaves the table at N entries and every
/// round leaves it as it started: entries that cover others are removed
/// and restored, and no round meets covering tests an earlier one already
/// answered. The corpus fixes which XPEs each round swaps; the seed orders
/// the round's ops. Indices refer to Inputs::xpes.
class ControlScript {
 public:
  struct Op {
    bool subscribe = true;
    std::size_t xpe = 0;
  };

  ControlScript(const Inputs& inputs, std::size_t pairs, std::uint64_t seed);

  /// The next op; throws once rounds() rounds have been issued.
  Op next();
  /// Ops in one cycle, and in one round (two cycles).
  std::size_t cycle_ops() const { return 2 * pairs_; }
  std::size_t round_ops() const { return 4 * pairs_; }
  /// Rounds a run can take before an XPE would be used twice.
  std::size_t rounds() const { return rounds_; }
  /// Indices of the XPEs live after every op issued so far.
  const std::set<std::size_t>& live() const { return live_; }

 private:
  void start_round();

  xroute::Rng rng_;
  std::size_t pairs_;
  std::size_t table_size_;
  std::size_t rounds_;
  std::size_t round_ = 0;
  std::set<std::size_t> live_;
  std::vector<Op> ops_;
  std::size_t next_ = 0;
};

}  // namespace perfbench
