// The repository benchmark: one binary, three workloads.
//
//   xroute_perfbench --workload <publish_open|publish_saturate|control_churn>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --corpus-dir <dir> [--spans <file>]
//   xroute_perfbench --make-corpus <dir>
//
// --make-corpus writes the XPE corpus file into <dir> unless it is already
// there; runs read it from --corpus-dir (perfbench/run.py does both).
//
// Prints what it measured, then one JSON line: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer metrics of a traced in-process replay of the same inputs.
// Exits 0 only when every operation passed the oracle.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: xroute_perfbench --workload "
               "<publish_open|publish_saturate|control_churn> --seed <n> "
               "--seconds <s> --trace <0|1> --corpus-dir <dir> "
               "[--spans <file>]\n"
               "       xroute_perfbench --make-corpus <dir>\n",
               message);
  return 2;
}

}  // namespace

namespace perfbench {

InputOptions input_options() {
  InputOptions options;
  options.table_size = kTableSize;
  options.fresh = kFreshPool;
  options.docs = kDocPool;
  return options;
}

}  // namespace perfbench

namespace {

std::string corpus_file(const std::string& dir) {
  const InputOptions options = input_options();
  return dir + "/xpe-corpus-" + std::to_string(options.table_size) + "-" +
         std::to_string(options.fresh) + "-" +
         std::to_string(options.corpus_seed) + ".txt";
}

int make_corpus(const std::string& dir) {
  const std::string file = corpus_file(dir);
  if (std::ifstream(file).good()) return 0;
  try {
    const std::string partial = file + ".partial";
    save_xpe_corpus(make_xpe_corpus(input_options()), partial);
    std::rename(partial.c_str(), file.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--make-corpus") {
    return make_corpus(argv[2]);
  }
  RunOptions options;
  std::string corpus_dir;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (arg == "--corpus-dir") {
        corpus_dir = value;
      } else if (arg == "--spans") {
        options.spans_file = value;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (corpus_dir.empty()) return usage("--corpus-dir is required");
  if (options.seconds <= 0) return usage("--seconds must be positive");
  const bool publish = options.workload == "publish_open" ||
                       options.workload == "publish_saturate";
  if (!publish && options.workload != "control_churn") {
    return usage(("unknown workload " + options.workload).c_str());
  }

  // Teardown can write to a socket whose peer already closed; the
  // transport writes without MSG_NOSIGNAL, so SIGPIPE would kill the run
  // (NOTES.md, known defects).
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("workload %s, seed %llu, %.1f s, trace %d, %u cores; table %zu "
              "XPEs, open rate %.0f docs/s, window %zu docs\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, std::thread::hardware_concurrency(),
              kTableSize, kOpenRate, kWindow);
  try {
    const std::int64_t start = now_ns();
    const InputOptions input = input_options();
    const Inputs inputs = make_inputs(
        options.seed, input, load_xpe_corpus(corpus_file(corpus_dir), input));
    std::printf("inputs: %zu advertisements, %zu table XPEs (covering rate "
                "%.3f), %zu fresh, %zu documents (%zu distinct paths) in "
                "%.1f s\n",
                inputs.ads.size(), inputs.table_size, inputs.covering_rate,
                inputs.xpes.size() - inputs.table_size, inputs.docs.size(),
                inputs.distinct_paths.size(),
                static_cast<double>(now_ns() - start) / 1e9);
    std::fflush(stdout);
    const Result result = publish
                              ? run_publish(inputs, options,
                                            options.workload == "publish_open")
                              : run_churn(inputs, options);
    print_result(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
