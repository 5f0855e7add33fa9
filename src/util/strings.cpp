#include "util/strings.hpp"

#include <cctype>

namespace xatpg {

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t j = i;
    while (j < text.size() && !std::isspace(static_cast<unsigned char>(text[j]))) ++j;
    if (j > i) out.emplace_back(text.substr(i, j - i));
    i = j;
  }
  return out;
}

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

std::string indexed_name(std::string_view prefix, std::size_t index) {
  // Appending to a named string, rather than `"g" + std::to_string(i)`,
  // keeps gcc 12's -O3 inliner from a false -Wrestrict in libstdc++.
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

}  // namespace xatpg
