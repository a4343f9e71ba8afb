// perfbench — harness binary behind run.py.
//
//   perfbench gen   --fasta F --reads R --kind long|short --seed S ...
//   perfbench check --index I --reads R --paf P --out J
//   perfbench load  --unix SOCK --reads R --expect P --out J ...
//   perfbench trace --fasta F --index I --reads R --out J --spans S ...
//   perfbench host  --out J     (SIMD ISA and lanes, compiler)
//
// Each subcommand writes one JSON object to --out (plus spans where
// traced) and exits 0 on success, 1 on a failed check, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "genasmx/simd/batch_solver.hpp"
#include "genasmx/simd/dispatch.hpp"

namespace perfbench {

bool writeText(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  return static_cast<bool>(out);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool Spans::write(const std::string& path) const {
  std::string out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json j;
    j.num("i", static_cast<double>(i))
        .str("name", s.name)
        .num("start_ns", static_cast<double>(s.start_ns))
        .num("end_ns", static_cast<double>(s.end_ns))
        .num("parent", s.parent)
        .num("id", static_cast<double>(s.id))
        .raw("derived", s.derived ? "true" : "false");
    out += j.text();
    out += '\n';
  }
  return writeText(path, out);
}

Truth parseTruth(std::string_view name) {
  Truth t;
  const std::size_t a = name.find('!');
  if (a == std::string_view::npos) return t;
  const std::size_t b = name.find('!', a + 1);
  if (b == std::string_view::npos) return t;
  const std::size_t c = name.find('!', b + 1);
  if (c == std::string_view::npos) return t;
  t.contig = std::string(name.substr(a + 1, b - a - 1));
  t.pos = std::stoull(std::string(name.substr(b + 1, c - b - 1)));
  t.ok = true;
  return t;
}

int runHost(const Args& args) {
  const gx::simd::SimdBatchSolver solver;
  Json j;
  j.str("isa", gx::simd::isaName(gx::simd::activeIsa()))
      .num("simd_lanes", solver.lanes())
      .str("compiler", __VERSION__);
  return writeText(args.str("out"), j.text() + "\n") ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench gen|check|load|trace|host --key value...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const perfbench::Args args(argc, argv);
    if (cmd == "gen") return perfbench::runGen(args);
    if (cmd == "check") return perfbench::runCheck(args);
    if (cmd == "load") return perfbench::runLoad(args);
    if (cmd == "trace") return perfbench::runTrace(args);
    if (cmd == "host") return perfbench::runHost(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown subcommand %s\n", cmd.c_str());
  return 2;
}
