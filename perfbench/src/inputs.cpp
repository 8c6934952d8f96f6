#include "inputs.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "adv/derive.hpp"
#include "match/pub_match.hpp"
#include "workload/dtd_corpus.hpp"
#include "workload/set_builder.hpp"
#include "workload/xml_gen.hpp"
#include "xml/stream_parser.hpp"
#include "xpath/parser.hpp"

namespace perfbench {

using namespace xroute;

namespace {
constexpr const char* kCorpusHeader = "xroute-perfbench-xpes-1";
}  // namespace

XpeCorpus make_xpe_corpus(const InputOptions& options) {
  const Dtd dtd = news_dtd();
  XpeCorpus corpus;
  CoverSetOptions table_opts;
  table_opts.count = options.table_size;
  table_opts.target_rate = 0.9;
  table_opts.seed = options.corpus_seed;
  CoverSet table = build_covering_set(dtd, table_opts);
  if (table.xpes.size() != options.table_size) {
    throw std::runtime_error("covering set came out short");
  }
  corpus.covering_rate = table.constructed_rate;
  corpus.table = std::move(table.xpes);

  // Fresh XPEs: the same generator on another seed, minus the table.
  std::unordered_set<Xpe, XpeHash> taken(corpus.table.begin(),
                                         corpus.table.end());
  CoverSetOptions fresh_opts = table_opts;
  fresh_opts.count = options.fresh * 2;
  fresh_opts.seed = options.corpus_seed * 7919 + 17;
  for (Xpe& xpe : build_covering_set(dtd, fresh_opts).xpes) {
    if (corpus.fresh.size() == options.fresh) break;
    if (taken.insert(xpe).second) corpus.fresh.push_back(std::move(xpe));
  }
  if (corpus.fresh.size() != options.fresh) {
    throw std::runtime_error("fresh pool came out short");
  }
  return corpus;
}

void save_xpe_corpus(const XpeCorpus& corpus, const std::string& file) {
  std::ofstream out(file);
  out << kCorpusHeader << ' ' << corpus.table.size() << ' '
      << corpus.fresh.size() << ' ' << corpus.covering_rate << '\n';
  for (const auto* list : {&corpus.table, &corpus.fresh}) {
    for (const Xpe& xpe : *list) {
      const std::string text = xpe.to_string();
      if (!(parse_xpe(text) == xpe)) {
        throw std::runtime_error("XPE does not survive a text round trip: " +
                                 text);
      }
      out << text << '\n';
    }
  }
  if (!out) throw std::runtime_error("cannot write " + file);
}

XpeCorpus load_xpe_corpus(const std::string& file,
                          const InputOptions& options) {
  std::ifstream in(file);
  std::string header;
  std::size_t table = 0, fresh = 0;
  XpeCorpus corpus;
  in >> header >> table >> fresh >> corpus.covering_rate;
  if (!in || header != kCorpusHeader || table != options.table_size ||
      fresh != options.fresh) {
    throw std::runtime_error("corpus file " + file +
                             " is missing or was made for other sizes");
  }
  std::string line;
  std::getline(in, line);
  while (std::getline(in, line)) {
    (corpus.table.size() < table ? corpus.table : corpus.fresh)
        .push_back(parse_xpe(line));
  }
  if (corpus.fresh.size() != fresh) {
    throw std::runtime_error("corpus file " + file + " is truncated");
  }
  return corpus;
}

Inputs make_inputs(std::uint64_t seed, const InputOptions& options,
                   XpeCorpus corpus) {
  Inputs inputs;
  const Dtd dtd = news_dtd();
  inputs.ads = derive_advertisements(dtd).advertisements;
  inputs.covering_rate = corpus.covering_rate;
  // The subscription order shapes the covering tree, and with it the cost
  // of every later match (up to 2x between orders), so it is part of the
  // corpus: one fixed shuffle. So is the order of the fresh pool, which
  // fixes the XPEs each control round swaps (ControlScript). The run seed
  // orders documents and ops.
  Rng corpus_order(options.corpus_seed ^ 0x9e3779b97f4a7c15ull);
  std::shuffle(corpus.table.begin(), corpus.table.end(),
               corpus_order.engine());
  std::shuffle(corpus.fresh.begin(), corpus.fresh.end(),
               corpus_order.engine());
  Rng order(seed ^ 0x9e3779b97f4a7c15ull);
  inputs.xpes = std::move(corpus.table);
  inputs.table_size = inputs.xpes.size();
  inputs.xpes.insert(inputs.xpes.end(), corpus.fresh.begin(),
                     corpus.fresh.end());
  for (const Xpe& xpe : inputs.xpes) {
    for (const Step& step : xpe.steps()) {
      if (!step.predicates.empty()) {
        throw std::runtime_error("generated XPE carries a predicate");
      }
    }
  }

  Rng doc_rng(options.corpus_seed);
  for (std::size_t d = 0; d < options.docs; ++d) {
    inputs.docs.push_back(generate_document(dtd, doc_rng).serialize());
  }
  std::shuffle(inputs.docs.begin(), inputs.docs.end(), order.engine());
  std::map<std::vector<std::string>, std::uint32_t> keys;
  for (const std::string& doc : inputs.docs) {
    inputs.doc_paths.push_back(stream_extract_paths(doc));
    std::vector<std::uint32_t>& doc_keys = inputs.doc_keys.emplace_back();
    for (const Path& path : inputs.doc_paths.back()) {
      auto [it, inserted] = keys.emplace(
          path.elements, static_cast<std::uint32_t>(keys.size()));
      if (inserted) inputs.distinct_paths.push_back(Path{path.elements, {}});
      doc_keys.push_back(it->second);
    }
  }
  return inputs;
}

TableOracle::TableOracle(const Inputs& inputs)
    : inputs_(inputs), live_matches_(inputs.distinct_paths.size(), 0) {}

void TableOracle::add(const Xpe& xpe) {
  for (std::size_t i = 0; i < live_matches_.size(); ++i) {
    if (matches(inputs_.distinct_paths[i], xpe)) ++live_matches_[i];
  }
}

void TableOracle::remove(const Xpe& xpe) {
  for (std::size_t i = 0; i < live_matches_.size(); ++i) {
    if (matches(inputs_.distinct_paths[i], xpe)) --live_matches_[i];
  }
}

std::vector<std::uint32_t> TableOracle::wanted(std::size_t doc) const {
  std::vector<std::uint32_t> out;
  const std::vector<std::uint32_t>& keys = inputs_.doc_keys[doc];
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (live_matches_[keys[k]] > 0) {
      out.push_back(static_cast<std::uint32_t>(k));
    }
  }
  return out;
}

ControlScript::ControlScript(const Inputs& inputs, std::size_t pairs,
                             std::uint64_t seed)
    : rng_(seed * 6364136223846793005ull + 1442695040888963407ull),
      pairs_(pairs),
      table_size_(inputs.table_size),
      rounds_(std::min(inputs.table_size,
                       inputs.xpes.size() - inputs.table_size) /
              pairs) {
  for (std::size_t i = 0; i < inputs.table_size; ++i) live_.insert(i);
}

void ControlScript::start_round() {
  if (round_ == rounds_) {
    throw std::logic_error("control script: every XPE has been used");
  }
  std::vector<std::size_t> table(pairs_), fresh(pairs_);
  for (std::size_t j = 0; j < pairs_; ++j) {
    table[j] = round_ * pairs_ + j;
    fresh[j] = table_size_ + round_ * pairs_ + j;
  }
  ++round_;
  std::shuffle(table.begin(), table.end(), rng_.engine());
  std::shuffle(fresh.begin(), fresh.end(), rng_.engine());
  ops_.clear();
  next_ = 0;
  for (std::size_t j = 0; j < pairs_; ++j) {
    ops_.push_back(Op{true, fresh[j]});
    ops_.push_back(Op{false, table[j]});
  }
  std::shuffle(table.begin(), table.end(), rng_.engine());
  for (std::size_t j = 0; j < pairs_; ++j) {
    ops_.push_back(Op{true, table[j]});
    ops_.push_back(Op{false, fresh[j]});
  }
}

ControlScript::Op ControlScript::next() {
  if (next_ == ops_.size()) start_round();
  const Op op = ops_[next_++];
  if (op.subscribe) {
    live_.insert(op.xpe);
  } else {
    live_.erase(op.xpe);
  }
  return op;
}

}  // namespace perfbench
