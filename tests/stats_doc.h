// Reads counters back out of a rendered stats document
// (Gateway::stats_json), so a test can hold each number against the
// counter its owner reports.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace btcfast::stats_doc {

/// The value of counter `key` inside the innermost object `section`
/// (searched from the top of the document when `section` is empty), or
/// nullopt when either is missing. Sections holding counters are flat,
/// so the section ends at its first closing brace.
[[nodiscard]] inline std::optional<std::uint64_t> counter(const std::string& doc,
                                                         const std::string& section,
                                                         const std::string& key) {
  std::size_t from = 0;
  std::size_t end = doc.size();
  if (!section.empty()) {
    from = doc.find("\"" + section + "\": {");
    if (from == std::string::npos) return std::nullopt;
    end = doc.find('}', from);
  }
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = doc.find(needle, from);
  if (at == std::string::npos || at > end) return std::nullopt;
  return std::stoull(doc.substr(at + needle.size()));
}

}  // namespace btcfast::stats_doc
