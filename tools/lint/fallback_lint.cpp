// The xatpg-* lint checks: invariants of this code base that a generic
// linter cannot know, named like clang-tidy checks.
//
// Each check is a conservative token-level scanner, so the tool builds with
// nothing but a C++20 compiler and the project stays testable on a bare gcc
// toolchain.  It honours clang-tidy's NOLINT escape hatch and verifies
// itself against the lit-style fixtures in fixtures/.  `ctest -R lint`
// drives it on every host, in tier-1 and in the CI lint job.
//
// The checks (see README "Static analysis" for the invariants they guard):
//
//   xatpg-same-manager      Bdd binary operations whose operands trace to
//                           DIFFERENT local BddManager objects.  Mixing
//                           managers is undefined behaviour the kernel can
//                           only catch at runtime (XATPG_CHECK death); this
//                           catches it at lint time.
//   xatpg-raw-edge-arith    Bit arithmetic on packed BDD edge words
//                           ((node << 1) | complement) outside src/bdd/.
//                           The complement-edge encoding is a kernel-private
//                           representation; everything above the kernel must
//                           go through the Bdd handle API.
//   xatpg-unchecked-expected  Expected<T> results that are discarded, or
//                           unwrapped with .value() when no dominating
//                           has_value()/boolean check of the same variable
//                           appears earlier in the function.
//
// Modes:
//   fallback_lint --verify file...   lit-style fixture verification: every
//       `// CHECK-MESSAGES: :[[@LINE-N]]:...: warning: <substr> [check]`
//       comment must be matched by a finding, and every finding by an
//       expectation.  Files with no expectations must scan clean.
//   fallback_lint --tree path...     scan production sources (recursing into
//       directories); any finding fails the run.  Files under src/bdd/ are
//       exempt from xatpg-raw-edge-arith (the kernel owns the encoding).
//
// Suppression: a `// NOLINT` or `// NOLINT(xatpg-...)` comment on the
// flagged line silences it, matching clang-tidy semantics.
#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string check;
  std::string message;
};

struct Expectation {
  std::size_t line = 0;
  std::string check;
  std::string substr;
  bool matched = false;
};

struct SourceLine {
  std::string code;     // comments and string/char literals blanked out
  std::string comment;  // trailing // comment text (for NOLINT / CHECK)
};

/// Strip comments and literals so token scans cannot trip on text inside
/// them.  Tracks /* */ across lines; literals are replaced by spaces.
class Preprocessor {
 public:
  SourceLine strip(const std::string& raw) {
    SourceLine out;
    out.code.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const char c = raw[i];
      const char next = i + 1 < raw.size() ? raw[i + 1] : '\0';
      if (in_block_comment_) {
        if (c == '*' && next == '/') {
          in_block_comment_ = false;
          ++i;
        }
        out.code.push_back(' ');
        continue;
      }
      if (c == '/' && next == '/') {
        out.comment = raw.substr(i + 2);
        break;
      }
      if (c == '/' && next == '*') {
        in_block_comment_ = true;
        out.code.push_back(' ');
        ++i;
        continue;
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        out.code.push_back(' ');
        ++i;
        while (i < raw.size()) {
          if (raw[i] == '\\') {
            ++i;
          } else if (raw[i] == quote) {
            break;
          }
          out.code.push_back(' ');
          ++i;
        }
        continue;
      }
      out.code.push_back(c);
    }
    return out;
  }

 private:
  bool in_block_comment_ = false;
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool nolint_allows(const std::string& comment, const std::string& check) {
  const std::size_t pos = comment.find("NOLINT");
  if (pos == std::string::npos) return false;
  const std::size_t paren = comment.find('(', pos);
  if (paren == std::string::npos) return true;  // bare NOLINT: silence all
  const std::size_t close = comment.find(')', paren);
  if (close == std::string::npos) return true;
  const std::string list = comment.substr(paren + 1, close - paren - 1);
  return list.find(check) != std::string::npos;
}

// ---------------------------------------------------------------------------
// xatpg-raw-edge-arith
// ---------------------------------------------------------------------------

/// Single-character bit operator at `pos` (not &&, ||, &=, |=, <<=, or a
/// doubled shift used on a stream — stream shifts are filtered by operand
/// tests instead).
struct BitOp {
  std::size_t pos = 0;
  std::string op;
};

std::vector<BitOp> find_bit_ops(const std::string& code) {
  std::vector<BitOp> ops;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    const char prev = i > 0 ? code[i - 1] : '\0';
    const char next = i + 1 < code.size() ? code[i + 1] : '\0';
    if (c == '<' && next == '<') {
      if (i + 2 < code.size() && code[i + 2] == '=') continue;
      ops.push_back({i, "<<"});
      ++i;
    } else if (c == '>' && next == '>') {
      if (i + 2 < code.size() && code[i + 2] == '=') continue;
      ops.push_back({i, ">>"});
      ++i;
    } else if ((c == '&' || c == '|' || c == '^') && prev != c && next != c &&
               next != '=' && prev != '=') {
      // && || &= |= ^= excluded; so are &&-adjacent forms.  A unary
      // address-of / reference declarator can still land here; operand
      // classification below keeps those out.
      ops.push_back({i, std::string(1, c)});
    }
  }
  return ops;
}

std::string token_left_of(const std::string& code, std::size_t pos) {
  std::size_t end = pos;
  while (end > 0 && code[end - 1] == ' ') --end;
  std::size_t begin = end;
  // Walk back over a postfix chain: identifiers, calls/subscripts, member
  // access (both . and ->), so `fault.edge_word` and `b.index()` are seen
  // whole.
  while (begin > 0 &&
         (is_ident_char(code[begin - 1]) ||
          std::strchr("()[].->", code[begin - 1]) != nullptr))
    --begin;
  std::string token = code.substr(begin, end - begin);
  // A leading '(' is the surrounding parenthesis, not part of the operand.
  while (!token.empty() && token.front() == '(') token.erase(token.begin());
  return token;
}

std::string token_right_of(const std::string& code, std::size_t pos) {
  std::size_t begin = pos;
  // Skip spaces and value-preserving unary prefixes (~x, (x).
  while (begin < code.size() &&
         (code[begin] == ' ' || code[begin] == '~' || code[begin] == '('))
    ++begin;
  std::size_t end = begin;
  while (end < code.size() && is_ident_char(code[end])) ++end;
  return code.substr(begin, end - begin);
}

bool lower_contains(const std::string& s, const char* needle) {
  std::string low(s);
  std::transform(low.begin(), low.end(), low.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return low.find(needle) != std::string::npos;
}

/// An operand that names a packed edge: an identifier containing "edge", or
/// a Bdd handle's raw word via .index().
bool is_edge_operand(const std::string& token) {
  if (token.find(".index()") != std::string::npos ||
      token.find("->index()") != std::string::npos)
    return true;
  // Identifier (possibly a member access chain tail) containing "edge".
  std::string tail = token;
  const std::size_t dot = tail.find_last_of(".>");
  if (dot != std::string::npos) tail = tail.substr(dot + 1);
  if (tail.empty() || !is_ident_char(tail[0])) return false;
  return lower_contains(tail, "edge");
}

bool is_numeric_literal(const std::string& token) {
  if (token.empty() || std::isdigit(static_cast<unsigned char>(token[0])) == 0)
    return false;
  return std::all_of(token.begin(), token.end(), [](unsigned char c) {
    return std::isalnum(c) != 0 || c == '\'';
  });
}

void check_raw_edge_arith(const std::string& file,
                          const std::vector<SourceLine>& lines,
                          std::vector<Finding>& findings) {
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    std::string why;
    for (const BitOp& op : find_bit_ops(code)) {
      const std::string lhs = token_left_of(code, op.pos);
      const std::string rhs = token_right_of(code, op.pos + op.op.size());
      // Shifts: a packing/unpacking shift has the edge word on the left and
      // a literal distance on the right (`edge >> 1`); streaming an
      // edge-named value into an ostream must not trip this.
      if (op.op == "<<" || op.op == ">>") {
        if (is_edge_operand(lhs) && is_numeric_literal(rhs)) {
          why = "bit shift ('" + op.op + "') on a packed BDD edge value";
          break;
        }
        continue;
      }
      // Masking ops: require an edge operand AND a literal-or-edge partner,
      // so reference declarators (`const auto& edge`) and predicate
      // combinations stay out.
      const bool lhs_edge = is_edge_operand(lhs);
      const bool rhs_edge = is_edge_operand(rhs);
      if ((lhs_edge || rhs_edge) &&
          (lhs_edge ? (rhs_edge || is_numeric_literal(rhs))
                    : is_numeric_literal(lhs))) {
        why = "bit arithmetic ('" + op.op + "') on a packed BDD edge value";
        break;
      }
    }
    // The canonical packing idiom itself: (x << 1) | c — flag even when the
    // identifier does not say "edge"; nothing outside the kernel has a
    // legitimate (expr << 1) | expr.
    if (why.empty() &&
        std::regex_search(code, std::regex(R"(\(\s*[\w.>-]+\s*<<\s*1[uU]?\s*\)\s*\|)"))) {
      why = "packed-edge construction '(node << 1) | complement'";
    }
    if (why.empty()) continue;
    if (nolint_allows(lines[n].comment, "xatpg-raw-edge-arith")) continue;
    findings.push_back(
        {file, n + 1, "xatpg-raw-edge-arith",
         why + " outside src/bdd/ — the complement-edge encoding is "
               "kernel-private; use the Bdd/BddManager API"});
  }
}

// ---------------------------------------------------------------------------
// xatpg-unchecked-expected
// ---------------------------------------------------------------------------

/// Expected<T>-returning entry points of the public API whose result must
/// never be dropped on the floor (mirrors the [[nodiscard]] sweep; the
/// check exists for call sites compiled without warnings).
const char* const kExpectedReturning[] = {"validate", "test_program"};

void check_unchecked_expected(const std::string& file,
                              const std::vector<SourceLine>& lines,
                              std::vector<Finding>& findings) {
  // Brace depth tracking approximates function scope: a "checked" marker for
  // a variable lives until the depth drops below the level where we saw it.
  struct Checked {
    int depth = 0;
  };
  std::map<std::string, Checked> checked;
  int depth = 0;

  auto mark_checked = [&](const std::string& var) {
    if (var.empty()) return;
    // Keep the shallowest marker: a re-check deeper in a nested block must
    // not shorten the lifetime of an already-established dominating check.
    const auto it = checked.find(var);
    if (it == checked.end() || depth < it->second.depth)
      checked[var] = Checked{depth};
  };

  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;

    // Record dominating checks BEFORE flagging this line: has_value(),
    // boolean tests, and the common early-return-on-error forms.
    static const std::regex check_re(
        R"((\w+)(?:\.|->)has_value\s*\(|if\s*\(\s*!?\s*(\w+)\s*\)|XATPG_CHECK(?:_MSG)?\s*\(\s*!?\s*(\w+)[\s.)]|ASSERT_TRUE\s*\(\s*(\w+)|EXPECT_TRUE\s*\(\s*(\w+)|(\w+)(?:\.|->)error\s*\()");
    for (std::sregex_iterator it(code.begin(), code.end(), check_re), end;
         it != end; ++it) {
      for (std::size_t g = 1; g < it->size(); ++g)
        if ((*it)[g].matched) mark_checked((*it)[g].str());
    }

    // Discarded Expected result: a whole statement of the form
    //   [recv.]validate(...);   or   [recv->]test_program(...);
    // with no assignment, return, or surrounding expression.
    for (const char* fn : kExpectedReturning) {
      const std::regex discard_re("^\\s*(?:[\\w\\]\\[.>-]+(?:\\.|->))?" +
                                  std::string(fn) + R"(\s*\([^;=]*\)\s*;\s*$)");
      if (std::regex_match(code, discard_re) &&
          !nolint_allows(lines[n].comment, "xatpg-unchecked-expected")) {
        findings.push_back(
            {file, n + 1, "xatpg-unchecked-expected",
             std::string("result of '") + fn +
                 "' (an Expected) is discarded — check has_value() or "
                 "propagate the error"});
      }
    }

    // .value() with no dominating check of the same variable.
    static const std::regex value_re(R"((\w+)(?:\.|->)value\s*\(\s*\))");
    for (std::sregex_iterator it(code.begin(), code.end(), value_re), end;
         it != end; ++it) {
      const std::string var = (*it)[1].str();
      // A check anywhere earlier on the same line counts (e.g. the
      // `x.has_value() ? x.value() : ...` idiom).
      if (checked.count(var) != 0) continue;
      if (nolint_allows(lines[n].comment, "xatpg-unchecked-expected"))
        continue;
      findings.push_back(
          {file, n + 1, "xatpg-unchecked-expected",
           "'" + var + ".value()' has no dominating has_value()/boolean "
           "check of '" + var + "' — an errored Expected would throw here"});
    }

    // Track scope: drop markers whose block closed.
    for (const char c : code) {
      if (c == '{') ++depth;
      if (c == '}') {
        --depth;
        for (auto it = checked.begin(); it != checked.end();) {
          if (it->second.depth > depth)
            it = checked.erase(it);
          else
            ++it;
        }
      }
    }
    // Function boundary at depth 0 resets everything.
    if (depth == 0) checked.clear();
  }
}

// ---------------------------------------------------------------------------
// xatpg-same-manager
// ---------------------------------------------------------------------------

void check_same_manager(const std::string& file,
                        const std::vector<SourceLine>& lines,
                        std::vector<Finding>& findings) {
  // Per-function tracking (reset when brace depth returns to 0):
  //   managers: local `BddManager m...;` declarations
  //   owner_of: Bdd variable -> manager variable it was built from
  std::vector<std::string> managers;
  std::map<std::string, std::string> owner_of;
  int depth = 0;

  static const std::regex mgr_decl_re(R"(\bBddManager\s+(\w+)\s*[;({])");
  static const std::regex bdd_bind_re(
      R"(\b(?:Bdd|auto)\s+(\w+)\s*=\s*(\w+)\s*\.)");
  static const std::regex bdd_copy_re(
      R"(\b(?:Bdd|auto)\s+(\w+)\s*=\s*(\w+)\s*[;&|^])");
  static const std::regex binop_re(R"((\w+)\s*[&|^]\s*(\w+))");
  static const std::regex recv_call_re(
      R"((\w+)\.(?:ite|apply_and|apply_or|apply_xor|apply_not|exists|forall|and_exists|permute|compose|cofactor|sat_count|pick_minterm|eval|all_minterms|append_minterm_rows|support_cube|support_vars)\s*\(([^;]*))");

  auto is_manager = [&](const std::string& name) {
    return std::find(managers.begin(), managers.end(), name) != managers.end();
  };
  auto owner = [&](const std::string& name) -> std::string {
    const auto it = owner_of.find(name);
    return it == owner_of.end() ? std::string() : it->second;
  };

  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;

    for (std::sregex_iterator it(code.begin(), code.end(), mgr_decl_re), end;
         it != end; ++it)
      managers.push_back((*it)[1].str());

    // `Bdd x = m.var(0);` binds x to manager m; `Bdd y = x & z;` inherits.
    for (std::sregex_iterator it(code.begin(), code.end(), bdd_bind_re), end;
         it != end; ++it) {
      const std::string var = (*it)[1].str();
      const std::string src = (*it)[2].str();
      if (is_manager(src))
        owner_of[var] = src;
      else if (!owner(src).empty())
        owner_of[var] = owner(src);
    }
    for (std::sregex_iterator it(code.begin(), code.end(), bdd_copy_re), end;
         it != end; ++it) {
      const std::string var = (*it)[1].str();
      const std::string src = (*it)[2].str();
      if (!owner(src).empty() && owner(var).empty()) owner_of[var] = owner(src);
    }

    std::string why;
    // Operand pair with distinct owning managers under a binary Bdd op.
    for (std::sregex_iterator it(code.begin(), code.end(), binop_re), end;
         it != end && why.empty(); ++it) {
      const std::string a = owner((*it)[1].str());
      const std::string b = owner((*it)[2].str());
      if (!a.empty() && !b.empty() && a != b)
        why = "operands of this Bdd operation belong to different "
              "BddManagers ('" + a + "' vs '" + b + "')";
    }
    // Manager method call whose Bdd argument belongs to another manager.
    for (std::sregex_iterator it(code.begin(), code.end(), recv_call_re), end;
         it != end && why.empty(); ++it) {
      const std::string recv = (*it)[1].str();
      if (!is_manager(recv)) continue;
      const std::string args = (*it)[2].str();
      static const std::regex arg_ident_re(R"(\b(\w+)\b)");
      for (std::sregex_iterator at(args.begin(), args.end(), arg_ident_re),
           aend; at != aend; ++at) {
        const std::string own = owner((*at)[1].str());
        if (!own.empty() && own != recv) {
          why = "argument '" + (*at)[1].str() + "' belongs to BddManager '" +
                own + "' but the operation runs on '" + recv + "'";
          break;
        }
      }
    }

    if (!why.empty() &&
        !nolint_allows(lines[n].comment, "xatpg-same-manager")) {
      findings.push_back(
          {file, n + 1, "xatpg-same-manager",
           why + " — BDD operands must share one manager (the kernel "
                 "XATPG_CHECKs this at runtime; fix the call site)"});
    }

    for (const char c : code) {
      if (c == '{') ++depth;
      if (c == '}') --depth;
    }
    if (depth <= 0) {
      depth = 0;
      managers.clear();
      owner_of.clear();
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

bool under_src_bdd(const std::string& path) {
  return path.find("src/bdd/") != std::string::npos ||
         path.find("src\\bdd\\") != std::string::npos;
}

std::vector<Finding> scan_file(const std::string& path,
                               std::vector<SourceLine>* out_lines = nullptr) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fallback_lint: cannot open " << path << "\n";
    std::exit(2);
  }
  Preprocessor pp;
  std::vector<SourceLine> lines;
  for (std::string raw; std::getline(in, raw);) lines.push_back(pp.strip(raw));

  std::vector<Finding> findings;
  check_same_manager(path, lines, findings);
  if (!under_src_bdd(path)) check_raw_edge_arith(path, lines, findings);
  check_unchecked_expected(path, lines, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) { return a.line < b.line; });
  if (out_lines != nullptr) *out_lines = std::move(lines);
  return findings;
}

void print_finding(const Finding& f) {
  std::cout << f.file << ":" << f.line << ": warning: " << f.message << " ["
            << f.check << "]\n";
}

/// Parse `// CHECK-MESSAGES: :[[@LINE-N]]:COL: warning: <substr> [check]`
/// (COL and the warning prefix are optional; N defaults to 0 for @LINE).
std::optional<Expectation> parse_expectation(const std::string& comment,
                                             std::size_t comment_line) {
  const std::size_t tag = comment.find("CHECK-MESSAGES:");
  if (tag == std::string::npos) return std::nullopt;
  std::string rest = comment.substr(tag + std::strlen("CHECK-MESSAGES:"));

  static const std::regex line_re(R"(\[\[@LINE(?:-(\d+))?\]\])");
  std::smatch m;
  Expectation e;
  e.line = comment_line;
  if (std::regex_search(rest, m, line_re)) {
    if (m[1].matched) e.line = comment_line - std::stoul(m[1].str());
    rest = rest.substr(static_cast<std::size_t>(m.position(0) + m.length(0)));
  }
  const std::size_t open = rest.rfind('[');
  const std::size_t close = rest.rfind(']');
  if (open == std::string::npos || close == std::string::npos || close < open)
    return std::nullopt;
  e.check = rest.substr(open + 1, close - open - 1);
  std::string msg = rest.substr(0, open);
  const std::size_t warn = msg.find("warning:");
  if (warn != std::string::npos)
    msg = msg.substr(warn + std::strlen("warning:"));
  // Trim; drop a leading ":COL:" fragment if present.
  const auto not_space = [](unsigned char c) { return std::isspace(c) == 0; };
  msg.erase(msg.begin(), std::find_if(msg.begin(), msg.end(), not_space));
  msg.erase(std::find_if(msg.rbegin(), msg.rend(), not_space).base(),
            msg.end());
  e.substr = msg;
  return e;
}

int verify_fixture(const std::string& path) {
  std::vector<SourceLine> lines;
  std::vector<Finding> findings = scan_file(path, &lines);

  std::vector<Expectation> expects;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    if (auto e = parse_expectation(lines[n].comment, n + 1)) {
      expects.push_back(std::move(*e));
    }
  }

  int failures = 0;
  for (Expectation& e : expects) {
    const auto hit = std::find_if(
        findings.begin(), findings.end(), [&](const Finding& f) {
          return f.line == e.line && f.check == e.check &&
                 (e.substr.empty() ||
                  f.message.find(e.substr) != std::string::npos);
        });
    if (hit == findings.end()) {
      std::cerr << path << ":" << e.line << ": MISSING expected ["
                << e.check << "] diagnostic";
      if (!e.substr.empty()) std::cerr << " containing '" << e.substr << "'";
      std::cerr << "\n";
      ++failures;
    } else {
      e.matched = true;
      findings.erase(hit);
    }
  }
  for (const Finding& f : findings) {
    std::cerr << path << ":" << f.line << ": UNEXPECTED diagnostic ["
              << f.check << "]: " << f.message << "\n";
    ++failures;
  }
  const char* verdict = failures == 0 ? "OK" : "FAIL";
  std::cout << "fallback_lint --verify " << path << ": " << verdict << " ("
            << expects.size() << " expectation(s))\n";
  return failures;
}

bool lintable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() < 2 || (args[0] != "--verify" && args[0] != "--tree")) {
    std::cerr << "usage: fallback_lint --verify fixture.cpp...\n"
                 "       fallback_lint --tree path...\n";
    return 2;
  }

  if (args[0] == "--verify") {
    int failures = 0;
    for (std::size_t i = 1; i < args.size(); ++i)
      failures += verify_fixture(args[i]);
    return failures == 0 ? 0 : 1;
  }

  // --tree
  std::vector<std::string> files;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::filesystem::path root(args[i]);
    if (std::filesystem::is_directory(root)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() && lintable(entry.path()))
          files.push_back(entry.path().string());
      }
    } else {
      files.push_back(root.string());
    }
  }
  std::sort(files.begin(), files.end());

  std::size_t total = 0;
  for (const std::string& file : files) {
    for (const Finding& f : scan_file(file)) {
      print_finding(f);
      ++total;
    }
  }
  std::cout << "fallback_lint --tree: " << files.size() << " file(s), "
            << total << " finding(s)\n";
  return total == 0 ? 0 : 1;
}
