// The benchmark's oracle must flag what it exists to catch: a missed, a
// spurious and a duplicate delivery, and a table that differs from the
// expected one. Run: cmake --build .bench_build --target
// perfbench_oracle_test && .bench_build/perfbench_oracle_test
#include <cstdio>
#include <set>
#include <stdexcept>
#include <vector>

#include "chain.hpp"
#include "inputs.hpp"
#include "oracle.hpp"
#include "wire/codec.hpp"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                              \
  do {                                                           \
    if (!(cond)) {                                               \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                   __LINE__, #cond);                             \
      ++failures;                                                \
    }                                                            \
  } while (0)

void exact_deliveries_pass() {
  DeliveryOracle oracle;
  oracle.expect(0, {2, 0});
  oracle.expect(1, {});
  oracle.arrived(0, 0);
  oracle.arrived(0, 2);
  const DeliveryOracle::Verdict v = oracle.judge();
  CHECK(v.ok());
  CHECK(v.owed_paths == 2);
  CHECK(v.failed_docs == 0);
}

void injected_faults_are_flagged() {
  DeliveryOracle missed;
  missed.expect(0, {0, 2});
  missed.arrived(0, 0);
  CHECK(missed.judge().missed == 1);
  CHECK(missed.judge().failed_docs == 1);

  DeliveryOracle spurious;
  spurious.expect(0, {0});
  spurious.expect(1, {});
  spurious.arrived(0, 0);
  spurious.arrived(1, 3);  // owed nothing
  spurious.arrived(7, 0);  // never sent
  CHECK(spurious.judge().spurious == 2);
  CHECK(spurious.judge().missed == 0);
  CHECK(spurious.judge().failed_docs == 2);

  DeliveryOracle duplicate;
  duplicate.expect(0, {0, 1});
  duplicate.arrived(0, 1);
  duplicate.arrived(0, 0);
  duplicate.arrived(0, 1);
  CHECK(duplicate.judge().duplicates == 1);
  CHECK(duplicate.judge().missed == 0);
  CHECK(!duplicate.judge().ok());
}

/// Real deliveries from the in-process chain agree with the reference
/// table, and the same faults injected into them are caught.
void chain_deliveries_match_reference() {
  InputOptions options;
  options.table_size = 1500;
  options.fresh = 10;
  options.docs = 60;
  const Inputs inputs = make_inputs(3, options, make_xpe_corpus(options));
  Chain chain;
  for (const xroute::Advertisement& adv : inputs.ads) chain.advertise(adv);
  TableOracle table(inputs);
  for (std::size_t i = 0; i < inputs.table_size; ++i) {
    chain.control(xroute::wire::encode_frame(
                      xroute::Message::subscribe(inputs.xpes[i])),
                  i);
    table.add(inputs.xpes[i]);
  }

  std::vector<std::pair<std::uint64_t, std::uint32_t>> got;
  const Chain::Deliver record = [&](std::uint64_t doc, std::uint32_t path,
                                    std::int64_t) {
    got.emplace_back(doc, path);
  };
  DeliveryOracle oracle;
  std::size_t owed = 0;
  for (std::size_t d = 0; d < inputs.docs.size(); ++d) {
    chain.publish(inputs.docs[d], d, record);
    oracle.expect(d, table.wanted(d));
    owed += table.wanted(d).size();
  }
  std::printf("chain: %zu owed paths, %zu delivered\n", owed, got.size());
  CHECK(got.size() >= 2);
  if (got.size() < 2) return;
  for (const auto& [doc, path] : got) oracle.arrived(doc, path);
  CHECK(oracle.judge().ok());

  DeliveryOracle tampered;
  for (std::size_t d = 0; d < inputs.docs.size(); ++d) {
    tampered.expect(d, table.wanted(d));
  }
  for (std::size_t i = 1; i < got.size(); ++i) {  // drop the first
    tampered.arrived(got[i].first, got[i].second);
  }
  tampered.arrived(got[1].first, got[1].second);           // duplicate
  tampered.arrived(inputs.docs.size() + 5, 0);             // spurious
  const DeliveryOracle::Verdict v = tampered.judge();
  CHECK(v.missed == 1);
  CHECK(v.duplicates == 1);
  CHECK(v.spurious == 1);

  // Table oracle: unsubscribing through the chain and the reference keeps
  // them equal; a reference that skipped the op disagrees.
  const xroute::Xpe& gone = inputs.xpes[0];
  chain.control(xroute::wire::encode_frame(xroute::Message::unsubscribe(gone)),
                inputs.table_size);
  CHECK(!chain.b1().prt().contains(gone));
  CHECK(chain.b1().prt().size() == inputs.table_size - 1);

  // Control script: a round swaps fresh XPEs in and table XPEs out, pair
  // by pair, and ends on the initial table.
  ControlScript script(inputs, 2, 9);
  CHECK(script.rounds() == 5);
  std::set<std::size_t> initial;
  for (std::size_t i = 0; i < inputs.table_size; ++i) initial.insert(i);
  std::set<std::size_t> used;
  for (std::size_t r = 0; r < script.rounds(); ++r) {
    std::vector<ControlScript::Op> round;
    for (std::size_t k = 0; k < script.round_ops(); ++k) {
      round.push_back(script.next());
      CHECK(script.live().size() ==
            inputs.table_size + (round.back().subscribe ? 1 : 0));
      CHECK(script.live().count(round.back().xpe) ==
            (round.back().subscribe ? 1u : 0u));
      CHECK(round.back().subscribe == (k % 2 == 0));
      // First cycle: fresh in, table out; second: table in, fresh out.
      const bool fresh = round.back().xpe >= inputs.table_size;
      CHECK(fresh == (round.back().subscribe == (k < script.cycle_ops())));
      if (k < script.cycle_ops()) {
        CHECK(used.insert(round.back().xpe).second);  // never reused
      }
    }
    CHECK(script.live() == initial);
  }
  bool exhausted = false;
  try {
    (void)script.next();
  } catch (const std::logic_error&) {
    exhausted = true;
  }
  CHECK(exhausted);
}

}  // namespace

int main() {
  exact_deliveries_pass();
  injected_faults_are_flagged();
  chain_deliveries_match_reference();
  if (failures == 0) std::printf("perfbench oracle test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
