// Small string helpers: splitting and trimming for the netlist parser, and
// the numbered names generated circuits give their signals.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace xatpg {

/// Split on any run of whitespace; no empty tokens are produced.
std::vector<std::string> split_ws(std::string_view text);

/// Split on a single delimiter character; empty fields are kept.
std::vector<std::string> split(std::string_view text, char delim);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// `prefix` followed by the decimal `index`: indexed_name("g", 3) == "g3".
std::string indexed_name(std::string_view prefix, std::size_t index);

}  // namespace xatpg
