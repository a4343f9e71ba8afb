#pragma once
// Shared helpers of the perfbench harness: argument parsing, a flat JSON
// writer, the in-memory span recorder, and the simulator's truth names.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// `--key value` pairs after the subcommand name.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --key value, got " + key);
      }
      kv_[key.substr(2)] = argv[i + 1];
    }
  }
  [[nodiscard]] std::string str(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& dflt) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second;
  }
  [[nodiscard]] double num(const std::string& key) const {
    return std::stod(str(key));
  }
  [[nodiscard]] double num(const std::string& key, double dflt) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? dflt : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> kv_;
};

/// Ordered flat JSON object; numbers keep all their digits.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& str(const std::string& key, std::string_view v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (c == '\n') {
        q += "\\n";
        continue;
      }
      q += c;
    }
    q += '"';
    return raw(key, q);
  }
  Json& obj(const std::string& key, const Json& child) {
    return raw(key, child.text());
  }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += body_.size() == 1 ? "" : ",";
    body_ += "\"" + key + "\":" + v;
    return *this;
  }
  [[nodiscard]] std::string text() const { return body_ + "}"; }

 private:
  std::string body_ = "{";
};

bool writeText(const std::string& path, const std::string& text);

/// In-memory span recorder. Spans are appended at the boundary of each
/// call the harness makes into a genasmx module and written out once,
/// when the run ends. `derived` marks spans reconstructed from a
/// module's own reported durations (stage times, server-side latency)
/// rather than clocked around a call.
class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t id = -1;  ///< batch or request id shared by related spans
    bool derived = false;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 14);
  }

  int begin(std::string name, int parent, std::int64_t id) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), nowNs(), 0, parent, id, false});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end_ns = nowNs();
  }
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::int64_t id, bool derived) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), start_ns, end_ns, parent, id, derived});
    return static_cast<int>(spans_.size() - 1);
  }
  [[nodiscard]] const std::vector<Span>& all() const noexcept {
    return spans_;
  }
  /// One JSON object per line.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Simulator truth encoded in a read name: read_<i>!<contig>!<pos>!<+|->.
struct Truth {
  bool ok = false;
  std::string contig;
  std::size_t pos = 0;
};
Truth parseTruth(std::string_view name);

std::string readFile(const std::string& path);

int runGen(const Args& args);
int runCheck(const Args& args);
int runLoad(const Args& args);
int runTrace(const Args& args);

}  // namespace perfbench
