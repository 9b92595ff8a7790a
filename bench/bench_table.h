// Tiny fixed-width table printer shared by the experiment harnesses so
// every bench emits the same, diffable format — plus a JSON writer so
// each experiment also lands a machine-readable BENCH_*.json for
// cross-PR perf trajectories.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace btcfast::bench {

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  [[nodiscard]] const std::vector<std::string>& headers() const noexcept { return headers_; }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const noexcept {
    return rows_;
  }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& r : rows_) {
      for (std::size_t i = 0; i < r.size() && i < widths.size(); ++i) {
        if (r[i].size() > widths[i]) widths[i] = r[i].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t i = 0; i < widths.size(); ++i) {
        const std::string& cell = i < cells.size() ? cells[i] : std::string{};
        std::printf(" %-*s |", static_cast<int>(widths[i]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (const auto w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) std::printf("-");
      std::printf("|");
    }
    std::printf("\n");
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string fmt_sci(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3e", v);
  return buf;
}

inline std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

namespace detail {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Emit a table cell as a bare number when it parses as one (the diff
/// stays semantically meaningful), else as a quoted string.
inline std::string json_value(const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    (void)std::strtod(cell.c_str(), &end);
    if (end != nullptr && *end == '\0') return cell;
  }
  return "\"" + json_escape(cell) + "\"";
}

}  // namespace detail

/// Collects scalars and tables from one experiment and writes them as a
/// single JSON document (BENCH_<name>.json by convention).
class JsonDoc {
 public:
  void set(const std::string& key, const std::string& value) {
    scalars_.emplace_back(key, "\"" + detail::json_escape(value) + "\"");
  }
  void set(const std::string& key, double value) { scalars_.emplace_back(key, fmt(value, 6)); }
  void set(const std::string& key, std::uint64_t value) {
    scalars_.emplace_back(key, std::to_string(value));
  }
  void set(const std::string& key, int value) { scalars_.emplace_back(key, std::to_string(value)); }

  void add_table(const std::string& name, const Table& t) { tables_.emplace_back(name, t); }

  /// Write the document atomically (temp file + rename), so a crashed or
  /// interrupted bench never leaves a truncated BENCH_*.json behind and
  /// concurrent readers only ever observe complete documents. Every
  /// document opens with the machine's `hw_threads`, so a recorded number
  /// always says what hardware it came from. Returns false (and prints a
  /// warning) on I/O error.
  bool write(const std::string& path) const {
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: could not write %s\n", tmp.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"hw_threads\": %u", std::max(1u, std::thread::hardware_concurrency()));
    for (const auto& [k, v] : scalars_) {
      std::fprintf(f, ",\n  \"%s\": %s", detail::json_escape(k).c_str(), v.c_str());
    }
    for (const auto& [name, t] : tables_) {
      std::fprintf(f, ",\n  \"%s\": [\n", detail::json_escape(name).c_str());
      const auto& hs = t.headers();
      for (std::size_t r = 0; r < t.rows().size(); ++r) {
        const auto& row = t.rows()[r];
        std::fprintf(f, "    {");
        for (std::size_t i = 0; i < hs.size(); ++i) {
          const std::string& cell = i < row.size() ? row[i] : std::string{};
          std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                       detail::json_escape(hs[i]).c_str(), detail::json_value(cell).c_str());
        }
        std::fprintf(f, "}%s\n", r + 1 < t.rows().size() ? "," : "");
      }
      std::fprintf(f, "  ]");
    }
    std::fprintf(f, "\n}\n");
    if (std::fclose(f) != 0 || std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::fprintf(stderr, "warning: could not finalize %s\n", path.c_str());
      std::remove(tmp.c_str());
      return false;
    }
    std::printf("# wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>> scalars_;
  std::vector<std::pair<std::string, Table>> tables_;
};

}  // namespace btcfast::bench
