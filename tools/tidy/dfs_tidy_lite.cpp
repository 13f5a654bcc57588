// dfs-tidy-lite — the scanner behind the repo's dfs-* static-analysis
// checks (tools/tidy/README.md has the catalog).
//
// It implements the checks at the token level (comments and string
// literals stripped, identifiers tokenized, braces and parens tracked), so
// the fixture tests and the whole-tree gate run under plain ctest with no
// toolchain beyond the C++ compiler. Token-level means best effort: the
// narrowing check, for instance, flags a 64->32 static_cast only when the
// operand *looks* 64-bit (`.size()`, `size_t`, `uint64`, `strtoul`, ...);
// the annotated fixtures pin what each check must and must not flag.
//
// Modes:
//   dfs_tidy_lite [--root=DIR] [--checks=LIST] [--json=FILE] PATH...
//       scan files/directories; print clang-tidy-style diagnostics;
//       exit 1 when any finding survives NOLINT filtering
//   dfs_tidy_lite --verify [--checks=LIST] FIXTURE...
//       expected-diagnostics harness: compare findings against the
//       `// dfs-expect: <check>[, <check>...]` annotations in the file;
//       exit 1 on any missing or unexpected diagnostic
//
// NOLINT policy (docs/verification.md): `NOLINT(dfs-...)` and
// `NOLINTNEXTLINE(dfs-...)` suppress a finding, but any NOLINT that names
// a dfs- check must carry a written rationale after the check list
// (`// NOLINT(dfs-foo): why this is sound`); a bare suppression is itself
// a dfs-nolint-rationale finding that no NOLINT can silence.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/report/build_info.hpp"
#include "obs/report/report.hpp"

namespace dfsssp::tidy {
namespace {

namespace fs = std::filesystem;

const char* const kAllChecks[] = {
    "dfs-deterministic-iteration", "dfs-no-ambient-entropy",
    "dfs-engine-api",              "dfs-checked-narrowing",
    "dfs-metric-name-literal",     "dfs-nolint-rationale",
};

struct Finding {
  std::string file;  // display (root-relative when --root given)
  int line = 0;
  std::string check;
  std::string message;
};

// -- source model ------------------------------------------------------------

/// One parsed source file: the code view has comments blanked and string /
/// character literal *contents* blanked (quotes kept as anchors); comment
/// text is collected per line for NOLINT and dfs-expect parsing; raw lines
/// keep literal contents for the metric-name check.
struct FileView {
  std::string display;
  std::string rel;  // '/'-separated path used for scope decisions
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<std::string> comments;
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    out.push_back(line);
  }
  return out;
}

/// Comment/literal-aware scan. Line-based with carry-over state for block
/// comments and raw strings; good enough for the repo's style (no
/// multi-line plain string literals).
FileView parse_file(const std::string& path, const std::string& display,
                    const std::string& rel) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  FileView v;
  v.display = display;
  v.rel = rel;
  v.raw = split_lines(buf.str());
  v.code.resize(v.raw.size());
  v.comments.resize(v.raw.size());

  enum class St { kNormal, kBlockComment, kRawString } st = St::kNormal;
  std::string raw_delim;  // for raw strings: ")delim\""
  for (std::size_t li = 0; li < v.raw.size(); ++li) {
    const std::string& s = v.raw[li];
    std::string code(s.size(), ' ');
    std::string& comment = v.comments[li];
    std::size_t i = 0;
    while (i < s.size()) {
      if (st == St::kBlockComment) {
        auto end = s.find("*/", i);
        if (end == std::string::npos) {
          comment += s.substr(i);
          i = s.size();
        } else {
          comment += s.substr(i, end - i);
          i = end + 2;
          st = St::kNormal;
        }
        continue;
      }
      if (st == St::kRawString) {
        auto end = s.find(raw_delim, i);
        if (end == std::string::npos) {
          i = s.size();
        } else {
          i = end + raw_delim.size();
          code[i - 1] = '"';  // closing anchor
          st = St::kNormal;
        }
        continue;
      }
      char c = s[i];
      if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') {
        comment += s.substr(i + 2);
        break;
      }
      if (c == '/' && i + 1 < s.size() && s[i + 1] == '*') {
        i += 2;
        st = St::kBlockComment;
        continue;
      }
      if (c == '"') {
        // Raw string? Identifier char 'R' immediately before the quote.
        if (i > 0 && s[i - 1] == 'R' &&
            (i < 2 || !(std::isalnum(static_cast<unsigned char>(s[i - 2])) ||
                        s[i - 2] == '_'))) {
          auto open = s.find('(', i + 1);
          if (open != std::string::npos) {
            raw_delim = ")" + s.substr(i + 1, open - i - 1) + "\"";
            code[i] = '"';
            i = open + 1;
            st = St::kRawString;
            continue;
          }
        }
        code[i] = '"';
        ++i;
        while (i < s.size()) {
          if (s[i] == '\\') {
            i += 2;
            continue;
          }
          if (s[i] == '"') {
            code[i] = '"';
            ++i;
            break;
          }
          ++i;
        }
        continue;
      }
      if (c == '\'') {
        // Character literal (or digit separator — 4'000 — which has a
        // digit before it and is harmless to keep).
        bool digit_sep = i > 0 && std::isdigit(static_cast<unsigned char>(
                                      s[i - 1]));
        if (digit_sep) {
          code[i] = ' ';
          ++i;
          continue;
        }
        ++i;
        while (i < s.size()) {
          if (s[i] == '\\') {
            i += 2;
            continue;
          }
          if (s[i] == '\'') {
            ++i;
            break;
          }
          ++i;
        }
        continue;
      }
      code[i] = c;
      ++i;
    }
    v.code[li] = std::move(code);
  }
  return v;
}

// -- tokens ------------------------------------------------------------------

struct Tok {
  std::string text;
  int line = 0;  // 0-based
  int col = 0;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<Tok> tokenize(const FileView& v) {
  std::vector<Tok> toks;
  for (std::size_t li = 0; li < v.code.size(); ++li) {
    const std::string& s = v.code[li];
    std::size_t i = 0;
    while (i < s.size()) {
      char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (ident_char(c)) {
        std::size_t j = i;
        while (j < s.size() && ident_char(s[j])) ++j;
        toks.push_back({s.substr(i, j - i), static_cast<int>(li),
                        static_cast<int>(i)});
        i = j;
        continue;
      }
      toks.push_back({std::string(1, c), static_cast<int>(li),
                      static_cast<int>(i)});
      ++i;
    }
  }
  return toks;
}

bool is_ident(const Tok& t) {
  return !t.text.empty() && ident_char(t.text[0]) &&
         !std::isdigit(static_cast<unsigned char>(t.text[0]));
}

/// Index of the matching closer for the opener at `open`; toks.size() when
/// unbalanced.
std::size_t match_forward(const std::vector<Tok>& toks, std::size_t open,
                          const char* opener, const char* closer) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == opener) ++depth;
    if (toks[i].text == closer && --depth == 0) return i;
  }
  return toks.size();
}

/// The two tokens form one operator (`::`, `->`) only when adjacent in the
/// source.
bool adjacent(const Tok& a, const Tok& b) {
  return a.line == b.line &&
         a.col + static_cast<int>(a.text.size()) == b.col;
}

// -- NOLINT / expectations ---------------------------------------------------

bool glob_matches(const std::string& pattern, const std::string& name) {
  if (!pattern.empty() && pattern.back() == '*') {
    return name.rfind(pattern.substr(0, pattern.size() - 1), 0) == 0;
  }
  return pattern == name;
}

/// Does this comment line suppress `check`? `key` is "NOLINT" or
/// "NOLINTNEXTLINE".
bool nolint_suppresses(const std::string& comment, const char* key,
                       const std::string& check) {
  auto pos = comment.find(key);
  while (pos != std::string::npos) {
    std::size_t after = pos + std::string(key).size();
    // Reject NOLINTNEXTLINE when probing for NOLINT.
    if (!(after < comment.size() && ident_char(comment[after]))) {
      if (after < comment.size() && comment[after] == '(') {
        auto close = comment.find(')', after);
        std::string list = comment.substr(
            after + 1, close == std::string::npos ? std::string::npos
                                                  : close - after - 1);
        std::string item;
        std::istringstream in(list);
        while (std::getline(in, item, ',')) {
          item.erase(0, item.find_first_not_of(" \t"));
          item.erase(item.find_last_not_of(" \t") + 1);
          if (glob_matches(item, check)) return true;
        }
      } else {
        return true;  // bare NOLINT: suppress everything
      }
    }
    pos = comment.find(key, pos + 1);
  }
  return false;
}

struct CheckContext {
  const FileView* file = nullptr;
  std::vector<Finding>* findings = nullptr;
  bool fixture_mode = false;  // --verify: path scoping disabled

  void emit(int line, const std::string& check, std::string message) const {
    const auto& comments = file->comments;
    if (check != "dfs-nolint-rationale") {
      if (line < static_cast<int>(comments.size()) &&
          nolint_suppresses(comments[line], "NOLINT", check)) {
        return;
      }
      if (line > 0 && nolint_suppresses(comments[line - 1], "NOLINTNEXTLINE",
                                        check)) {
        return;
      }
    }
    findings->push_back({file->display, line + 1, check, std::move(message)});
  }
};

// -- check: dfs-deterministic-iteration --------------------------------------

const char* const kUnorderedTypes[] = {"unordered_map", "unordered_set",
                                       "unordered_multimap",
                                       "unordered_multiset"};

bool is_unordered_type_token(const std::string& t,
                             const std::set<std::string>& aliases) {
  for (const char* u : kUnorderedTypes) {
    if (t == u) return true;
  }
  return aliases.count(t) > 0;
}

/// Collects `using Alias = std::unordered_map<...>` aliases, then the names
/// of variables/members declared with an unordered type (or alias).
void harvest_unordered(const std::vector<Tok>& toks,
                       std::set<std::string>& aliases,
                       std::set<std::string>& vars) {
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].text == "using" && is_ident(toks[i + 1]) &&
        toks[i + 2].text == "=") {
      for (std::size_t j = i + 3; j < toks.size() && toks[j].text != ";";
           ++j) {
        if (is_unordered_type_token(toks[j].text, {})) {
          aliases.insert(toks[i + 1].text);
          break;
        }
      }
    }
  }
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_unordered_type_token(toks[i].text, aliases)) continue;
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") {
      j = match_forward(toks, j, "<", ">");
      if (j == toks.size()) continue;
      ++j;
    }
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j < toks.size() && is_ident(toks[j])) vars.insert(toks[j].text);
  }
}

void check_deterministic_iteration(const CheckContext& ctx,
                                   const std::vector<Tok>& toks,
                                   const std::set<std::string>& sibling_vars) {
  std::set<std::string> aliases, vars;
  harvest_unordered(toks, aliases, vars);
  vars.insert(sibling_vars.begin(), sibling_vars.end());
  if (vars.empty()) return;

  auto flag = [&](const Tok& at, const std::string& var) {
    ctx.emit(at.line, "dfs-deterministic-iteration",
             "iteration over unordered container '" + var +
                 "' has a hash-dependent order; use a deterministic "
                 "container (std::map / sorted vector) or NOLINT with a "
                 "rationale why the order cannot reach results");
  };
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text == "for" && toks[i + 1].text == "(") {
      std::size_t close = match_forward(toks, i + 1, "(", ")");
      if (close == toks.size()) continue;
      // Top-level ':' (skipping '::') makes it a range-for.
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (toks[j].text == "(" || toks[j].text == "[" ||
            toks[j].text == "<") {
          ++depth;
        }
        if (toks[j].text == ")" || toks[j].text == "]" ||
            toks[j].text == ">") {
          --depth;
        }
        if (depth == 0 && toks[j].text == ":" &&
            !(j + 1 < close && toks[j + 1].text == ":" &&
              adjacent(toks[j], toks[j + 1])) &&
            !(j > 0 && toks[j - 1].text == ":" &&
              adjacent(toks[j - 1], toks[j]))) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (is_ident(toks[j]) && vars.count(toks[j].text)) {
          flag(toks[i], toks[j].text);
          break;
        }
      }
    }
    // Explicit iterator loops: var.begin() / var.cbegin().
    if (is_ident(toks[i]) && vars.count(toks[i].text) &&
        i + 3 < toks.size() && toks[i + 1].text == "." &&
        (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin") &&
        toks[i + 3].text == "(") {
      flag(toks[i], toks[i].text);
    }
  }
}

// -- check: dfs-no-ambient-entropy -------------------------------------------

void check_no_ambient_entropy(const CheckContext& ctx,
                              const std::vector<Tok>& toks) {
  if (!ctx.fixture_mode) {
    // Allowlist: the obs layer and the wall-clock timer are the only
    // places that may observe the environment; everything else draws
    // randomness from seeded dfsssp::Rng streams.
    const std::string& rel = ctx.file->rel;
    if (rel.find("src/obs/") != std::string::npos) return;
    if (rel.size() >= 16 &&
        rel.compare(rel.size() - 16, 16, "common/timer.hpp") == 0) {
      return;
    }
  }
  static const std::set<std::string> kBannedCalls = {
      "rand",   "srand",         "drand48",      "lrand48",
      "random", "gettimeofday",  "clock_gettime", "time",
      "clock"};
  static const std::set<std::string> kBannedTypes = {
      "random_device", "system_clock", "high_resolution_clock"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i])) continue;
    if (kBannedTypes.count(toks[i].text)) {
      ctx.emit(toks[i].line, "dfs-no-ambient-entropy",
               "'" + toks[i].text +
                   "' is an ambient entropy/clock source; all randomness "
                   "must flow through seeded Rng streams (common/rng.hpp) "
                   "and timing through common/timer.hpp");
      continue;
    }
    if (kBannedCalls.count(toks[i].text) && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      // Member calls (config.time(...)) are a different function; '::'
      // qualification (std::time) is still the libc one.
      if (i > 0 && (toks[i - 1].text == "." ||
                    (toks[i - 1].text == ">" && i > 1 &&
                     toks[i - 2].text == "-" &&
                     adjacent(toks[i - 2], toks[i - 1])))) {
        continue;
      }
      // A type name right before means this is a declaration of an
      // unrelated function (std::int64_t time() const), not a call.
      static const std::set<std::string> kExprKeywords = {
          "return", "case", "else", "do", "throw", "co_return", "co_yield"};
      if (i > 0 && is_ident(toks[i - 1]) &&
          !kExprKeywords.count(toks[i - 1].text)) {
        continue;
      }
      // Qualification by anything other than std is a different function
      // (FaultSchedule::random(...)), not the libc one.
      if (i >= 3 && toks[i - 1].text == ":" && toks[i - 2].text == ":" &&
          is_ident(toks[i - 3]) && toks[i - 3].text != "std") {
        continue;
      }
      // `random`, `time`, and `clock` are common method/function names; the
      // libc originals take at most one argument, so a comma at argument
      // depth means this is an unrelated overload.
      static const std::set<std::string> kCollisionProne = {"random", "time",
                                                            "clock"};
      if (kCollisionProne.count(toks[i].text)) {
        int depth = 0;
        bool has_comma = false;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
          if (toks[j].text == "(") ++depth;
          else if (toks[j].text == ")" && --depth == 0) break;
          else if (toks[j].text == "," && depth == 1) has_comma = true;
        }
        if (has_comma) continue;
      }
      ctx.emit(toks[i].line, "dfs-no-ambient-entropy",
               "call to '" + toks[i].text +
                   "()' draws ambient entropy/time; use seeded Rng streams "
                   "(common/rng.hpp) or Timer (common/timer.hpp)");
    }
  }
}

// -- check: dfs-engine-api ---------------------------------------------------

void check_engine_api(const CheckContext& ctx, const std::vector<Tok>& toks) {
  // Any spelling of the removed transitional overload, anywhere.
  for (std::size_t i = 0; i + 4 < toks.size(); ++i) {
    if (toks[i].text == "route" && toks[i + 1].text == "(" &&
        toks[i + 2].text == "const" && toks[i + 3].text == "Topology" &&
        toks[i + 4].text == "&") {
      ctx.emit(toks[i].line, "dfs-engine-api",
               "legacy route(const Topology&) overload: engines speak "
               "RouteRequest/RouteResponse only (routing/router.hpp)");
    }
  }
  // Every Router subclass must override route(const RouteRequest&).
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text != "class" && toks[i].text != "struct") continue;
    if (i > 0 && toks[i - 1].text == "enum") continue;
    if (!is_ident(toks[i + 1])) continue;
    const std::string name = toks[i + 1].text;
    if (name == "Router") continue;
    std::size_t j = i + 2;
    if (j < toks.size() && toks[j].text == "final") ++j;
    if (j >= toks.size() || toks[j].text != ":") continue;
    bool derives_router = false;
    std::size_t body_open = toks.size();
    for (std::size_t k = j + 1; k < toks.size(); ++k) {
      if (toks[k].text == "{") {
        body_open = k;
        break;
      }
      if (toks[k].text == ";") break;  // not a definition
      if (toks[k].text == "Router") derives_router = true;
    }
    if (!derives_router || body_open == toks.size()) continue;
    std::size_t body_close = match_forward(toks, body_open, "{", "}");
    bool has_override = false;
    for (std::size_t k = body_open; k + 4 < body_close; ++k) {
      if (toks[k].text == "route" && toks[k + 1].text == "(" &&
          toks[k + 2].text == "const" &&
          toks[k + 3].text == "RouteRequest" && toks[k + 4].text == "&") {
        std::size_t close = match_forward(toks, k + 1, "(", ")");
        for (std::size_t m = close; m < body_close; ++m) {
          if (toks[m].text == ";" || toks[m].text == "{") break;
          if (toks[m].text == "override" || toks[m].text == "final") {
            has_override = true;
            break;
          }
        }
      }
    }
    if (!has_override) {
      ctx.emit(toks[i].line, "dfs-engine-api",
               "'" + name +
                   "' derives from Router but does not override "
                   "route(const RouteRequest&)");
    }
  }
}

// -- check: dfs-checked-narrowing --------------------------------------------

void check_checked_narrowing(const CheckContext& ctx,
                             const std::vector<Tok>& toks) {
  if (!ctx.fixture_mode &&
      ctx.file->rel.find("src/topology/") == std::string::npos) {
    return;
  }
  static const std::set<std::string> kNarrowTargets = {
      "std::uint32_t", "uint32_t", "std::int32_t", "int32_t",
      "NodeId",        "ChannelId", "Layer",       "std::uint16_t",
      "uint16_t",      "std::int16_t", "int16_t",  "std::uint8_t",
      "uint8_t",       "std::int8_t",  "int8_t",   "unsigned",
      "int"};
  static const std::set<std::string> kWideHints = {
      "size_t",   "uint64_t", "int64_t",  "uintptr_t", "intptr_t",
      "ptrdiff_t", "streamoff", "strtoul", "strtoull",  "stoul",
      "stoull",   "tellg",    "tellp"};
  static const std::set<std::string> kWideTypes = {
      "size_t",  "uint64_t", "int64_t",   "uintptr_t",
      "intptr_t", "ptrdiff_t", "streamoff", "streamsize"};
  // Names declared with a 64-bit type in this file (params and locals):
  // `std::uint64_t offset` makes a later static_cast<u32>(offset) wide.
  std::set<std::string> wide_vars;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!kWideTypes.count(toks[i].text)) continue;
    std::size_t j = i + 1;
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j < toks.size() && is_ident(toks[j])) wide_vars.insert(toks[j].text);
  }
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "static_cast" || toks[i + 1].text != "<") continue;
    std::size_t type_close = match_forward(toks, i + 1, "<", ">");
    if (type_close == toks.size()) continue;
    std::string type_text;
    for (std::size_t k = i + 2; k < type_close; ++k) {
      type_text += toks[k].text;
    }
    if (!kNarrowTargets.count(type_text)) continue;
    if (type_close + 1 >= toks.size() ||
        toks[type_close + 1].text != "(") {
      continue;
    }
    std::size_t arg_close = match_forward(toks, type_close + 1, "(", ")");
    bool wide = false;
    for (std::size_t k = type_close + 2; k < arg_close && !wide; ++k) {
      if (!is_ident(toks[k])) continue;
      if (kWideHints.count(toks[k].text) || wide_vars.count(toks[k].text)) {
        wide = true;
      }
      if (toks[k].text.size() > 2 &&
          toks[k].text.compare(toks[k].text.size() - 2, 2, "64") == 0) {
        wide = true;
      }
      if (toks[k].text == "size" && k + 1 < arg_close &&
          toks[k + 1].text == "(" && k > 0 && toks[k - 1].text == ".") {
        wide = true;
      }
    }
    if (wide) {
      ctx.emit(toks[i].line, "dfs-checked-narrowing",
               "raw static_cast<" + type_text +
                   "> from a 64-bit value; use checked_narrow()/"
                   "checked_u32() (common/narrow.hpp), or lo_u32()/hi_u32() "
                   "for intentional word splits");
    }
  }
}

// -- check: dfs-metric-name-literal ------------------------------------------

bool valid_metric_name(const std::string& s) {
  if (s.empty() || s.front() == '/' || s.back() == '/') return false;
  int slashes = 0;
  char prev = 0;
  for (char c : s) {
    if (c == '/') {
      if (prev == '/') return false;
      ++slashes;
    } else if (!(std::islower(static_cast<unsigned char>(c)) ||
                 std::isdigit(static_cast<unsigned char>(c)) || c == '_' ||
                 c == '.' || c == '-')) {
      return false;
    }
    prev = c;
  }
  return slashes >= 1;
}

/// String literal content starting at the opening quote (line, col) of the
/// code view, read from the raw line (contents are blanked in code).
std::string literal_at(const FileView& v, int line, int col) {
  const std::string& s = v.raw[line];
  std::string out;
  for (std::size_t i = col + 1; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      out += s[i + 1];
      ++i;
      continue;
    }
    if (s[i] == '"') break;
    out += s[i];
  }
  return out;
}

void check_metric_name_literal(const CheckContext& ctx,
                               const std::vector<Tok>& toks) {
  static const std::set<std::string> kRegisterFns = {
      "counter", "gauge", "histogram", "timing_histogram"};
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (!kRegisterFns.count(toks[i].text)) continue;
    if (toks[i + 1].text != "(") continue;
    // Registration is a member call: registry().counter(...), sink.gauge().
    const Tok& prev = toks[i - 1];
    bool member = prev.text == "." ||
                  (prev.text == ">" && i > 1 && toks[i - 2].text == "-" &&
                   adjacent(toks[i - 2], prev));
    if (!member) continue;
    const Tok& arg = toks[i + 2];
    if (arg.text == ")") continue;  // zero-arg overload: not a registration
    if (arg.text != "\"") {
      ctx.emit(toks[i].line, "dfs-metric-name-literal",
               "metric name passed to " + toks[i].text +
                   "() must be a string literal (constant cardinality); "
                   "dynamic names need a NOLINT rationale bounding the "
                   "cardinality");
      continue;
    }
    const std::string name = literal_at(*ctx.file, arg.line, arg.col);
    if (!valid_metric_name(name)) {
      ctx.emit(toks[i].line, "dfs-metric-name-literal",
               "metric name \"" + name +
                   "\" does not match the family/name pattern "
                   "([a-z0-9_.-]+ segments joined by '/')");
    }
  }
}

// -- check: dfs-nolint-rationale ---------------------------------------------

void check_nolint_rationale(const CheckContext& ctx) {
  const auto& comments = ctx.file->comments;
  for (std::size_t li = 0; li < comments.size(); ++li) {
    std::string c = comments[li];
    // Fixture expectation markers are harness syntax, not rationale prose.
    if (auto marker = c.find("dfs-expect:"); marker != std::string::npos) {
      c.erase(marker);
    }
    auto pos = c.find("NOLINT");
    while (pos != std::string::npos) {
      // Backtick-quoted mentions are documentation about the policy, not a
      // suppression (clang-tidy also only honours bare NOLINT markers).
      if (pos > 0 && c[pos - 1] == '`') {
        pos = c.find("NOLINT", pos + 6);
        continue;
      }
      std::size_t after = pos + 6;
      if (after + 8 < c.size() && c.compare(after, 8, "NEXTLINE") == 0) {
        after += 8;
      }
      if (after < c.size() && c[after] == '(') {
        auto close = c.find(')', after);
        const std::string list =
            c.substr(after + 1, close == std::string::npos
                                    ? std::string::npos
                                    : close - after - 1);
        if (list.find("dfs-") != std::string::npos) {
          std::string rest = close == std::string::npos
                                 ? std::string()
                                 : c.substr(close + 1);
          // Require a written rationale: some prose after the check list.
          rest.erase(0, rest.find_first_not_of(" \t:-"));
          if (rest.size() < 10) {
            ctx.emit(static_cast<int>(li), "dfs-nolint-rationale",
                     "NOLINT of a dfs- check needs a written rationale "
                     "after the check list "
                     "(`// NOLINT(dfs-...): why this is sound`)");
          }
        }
      }
      pos = c.find("NOLINT", pos + 6);
    }
  }
}

// -- driver ------------------------------------------------------------------

struct Options {
  std::set<std::string> checks;  // enabled set
  std::string root;
  std::string json_out;
  bool verify = false;
  std::vector<std::string> paths;
};

bool parse_checks(const std::string& spec, std::set<std::string>& out) {
  out.clear();
  for (const char* c : kAllChecks) out.insert(c);
  std::string item;
  std::istringstream in(spec);
  bool any_positive = false;
  std::vector<std::string> positives, negatives;
  while (std::getline(in, item, ',')) {
    item.erase(0, item.find_first_not_of(" \t"));
    item.erase(item.find_last_not_of(" \t") + 1);
    if (item.empty()) continue;
    if (item[0] == '-') {
      negatives.push_back(item.substr(1));
    } else {
      positives.push_back(item);
      any_positive = true;
    }
  }
  if (any_positive) {
    out.clear();
    for (const std::string& p : positives) {
      for (const char* c : kAllChecks) {
        if (glob_matches(p, c)) out.insert(c);
      }
    }
  }
  for (const std::string& n : negatives) {
    for (const char* c : kAllChecks) {
      if (glob_matches(n, c)) out.erase(c);
    }
  }
  return !out.empty() || !spec.empty();
}

/// Scans one file; sibling_vars carries unordered-container member names
/// harvested from the paired header/source of the same stem.
void run_checks(const Options& opt, const FileView& view,
                const std::set<std::string>& sibling_vars,
                std::vector<Finding>& findings) {
  CheckContext ctx{&view, &findings, opt.verify};
  const std::vector<Tok> toks = tokenize(view);
  if (opt.checks.count("dfs-deterministic-iteration")) {
    check_deterministic_iteration(ctx, toks, sibling_vars);
  }
  if (opt.checks.count("dfs-no-ambient-entropy")) {
    check_no_ambient_entropy(ctx, toks);
  }
  if (opt.checks.count("dfs-engine-api")) check_engine_api(ctx, toks);
  if (opt.checks.count("dfs-checked-narrowing")) {
    check_checked_narrowing(ctx, toks);
  }
  if (opt.checks.count("dfs-metric-name-literal")) {
    check_metric_name_literal(ctx, toks);
  }
  if (opt.checks.count("dfs-nolint-rationale")) check_nolint_rationale(ctx);
}

bool scannable(const fs::path& p) {
  const std::string ext = p.extension().string();
  if (ext != ".cpp" && ext != ".hpp" && ext != ".h" && ext != ".cc") {
    return false;
  }
  const std::string s = p.generic_string();
  // Deliberate violations live in the fixture corpus; build trees carry
  // generated sources.
  return s.find("tools/tidy/fixtures/") == std::string::npos &&
         s.find("/build/") == std::string::npos &&
         s.find("CMakeFiles") == std::string::npos;
}

std::vector<std::string> collect_files(const Options& opt) {
  std::vector<std::string> files;
  for (const std::string& p : opt.paths) {
    fs::path full = p;
    if (!opt.root.empty() && full.is_relative()) {
      full = fs::path(opt.root) / full;
    }
    if (fs::is_directory(full)) {
      for (const auto& e : fs::recursive_directory_iterator(full)) {
        if (e.is_regular_file() && scannable(e.path())) {
          files.push_back(e.path().generic_string());
        }
      }
    } else if (fs::exists(full)) {
      files.push_back(full.generic_string());
    } else {
      std::fprintf(stderr, "dfs_tidy_lite: no such path: %s\n", p.c_str());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

std::string relative_display(const std::string& file,
                             const std::string& root) {
  if (root.empty()) return file;
  const std::string r = fs::path(root).generic_string();
  std::string f = fs::path(file).generic_string();
  if (f.rfind(r, 0) == 0) {
    f = f.substr(r.size());
    if (!f.empty() && f.front() == '/') f.erase(0, 1);
  }
  return f;
}

/// Expected diagnostics of a fixture: `// dfs-expect: check[, check...]`.
std::multiset<std::pair<int, std::string>> expectations(const FileView& v) {
  std::multiset<std::pair<int, std::string>> out;
  for (std::size_t li = 0; li < v.comments.size(); ++li) {
    auto pos = v.comments[li].find("dfs-expect:");
    if (pos == std::string::npos) continue;
    std::string list = v.comments[li].substr(pos + 11);
    std::string item;
    std::istringstream in(list);
    while (std::getline(in, item, ',')) {
      item.erase(0, item.find_first_not_of(" \t"));
      item.erase(item.find_last_not_of(" \t") + 1);
      if (!item.empty()) {
        out.insert({static_cast<int>(li) + 1, item});
      }
    }
  }
  return out;
}

int verify_fixture(const Options& opt, const FileView& view) {
  std::vector<Finding> findings;
  std::set<std::string> no_sibling;
  run_checks(opt, view, no_sibling, findings);

  const auto expected = expectations(view);
  std::multiset<std::pair<int, std::string>> actual;
  for (const Finding& f : findings) actual.insert({f.line, f.check});

  int failures = 0;
  for (const auto& e : expected) {
    // Expectations for disabled checks are vacuous, so a fixture verified
    // with --checks=-dfs-foo *fails*: the expected diagnostics go missing.
    if (actual.count(e) == 0) {
      std::printf("%s:%d: missing expected diagnostic [%s]\n",
                  view.display.c_str(), e.first, e.second.c_str());
      ++failures;
    }
  }
  for (const auto& a : actual) {
    if (expected.count(a) == 0) {
      std::printf("%s:%d: unexpected diagnostic [%s]\n",
                  view.display.c_str(), a.first, a.second.c_str());
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("%s: %zu diagnostic(s) matched\n", view.display.c_str(),
                expected.size());
  }
  return failures == 0 ? 0 : 1;
}

/// Findings as a schema-2-style run report, so CI can diff tidy runs the
/// same way it diffs bench runs (dfbench compare tolerates extra files;
/// the artifact is for humans and trend tooling).
void write_json(const Options& opt, const std::vector<Finding>& findings,
                std::size_t files_scanned) {
  obs::RunReport rep;
  rep.bench = "dfs-tidy";
  rep.git_rev = obs::git_rev();
  rep.build_flags = obs::build_flags();

  obs::JsonValue config = obs::JsonValue::object();
  std::string checks;
  for (const std::string& c : opt.checks) {
    checks += (checks.empty() ? "" : ",") + c;
  }
  config.set("checks", obs::JsonValue::string(checks));
  config.set("files_scanned", obs::JsonValue::integer(
                                  static_cast<std::int64_t>(files_scanned)));
  rep.config = std::move(config);

  std::map<std::string, std::int64_t> per_check;
  for (const char* c : kAllChecks) per_check[c] = 0;
  for (const Finding& f : findings) ++per_check[f.check];
  obs::JsonValue metrics = obs::JsonValue::object();
  metrics.set("tidy/findings_total",
              obs::JsonValue::integer(
                  static_cast<std::int64_t>(findings.size())));
  for (const auto& [check, n] : per_check) {
    metrics.set("tidy/findings/" + check, obs::JsonValue::integer(n));
  }
  rep.metrics = std::move(metrics);

  obs::JsonValue rows = obs::JsonValue::array();
  for (const Finding& f : findings) {
    obs::JsonValue row = obs::JsonValue::array();
    row.push_back(obs::JsonValue::string(f.file));
    row.push_back(obs::JsonValue::integer(f.line));
    row.push_back(obs::JsonValue::string(f.check));
    row.push_back(obs::JsonValue::string(f.message));
    rows.push_back(std::move(row));
  }
  obs::JsonValue table = obs::JsonValue::object();
  table.set("title", obs::JsonValue::string("dfs-tidy findings"));
  obs::JsonValue cols = obs::JsonValue::array();
  for (const char* c : {"file", "line", "check", "message"}) {
    cols.push_back(obs::JsonValue::string(c));
  }
  table.set("columns", std::move(cols));
  table.set("rows", std::move(rows));
  rep.tables.push_back(std::move(table));

  obs::write_run_report(rep, opt.json_out);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: dfs_tidy_lite [--root=DIR] [--checks=LIST] [--json=FILE] "
      "PATH...\n"
      "       dfs_tidy_lite --verify [--checks=LIST] FIXTURE...\n"
      "checks: dfs-deterministic-iteration dfs-no-ambient-entropy\n"
      "        dfs-engine-api dfs-checked-narrowing dfs-metric-name-literal\n"
      "        dfs-nolint-rationale\n"
      "LIST is comma-separated; '-name' disables, bare names select.\n");
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  for (const char* c : kAllChecks) opt.checks.insert(c);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verify") {
      opt.verify = true;
    } else if (arg.rfind("--checks=", 0) == 0) {
      if (!parse_checks(arg.substr(9), opt.checks)) return usage();
    } else if (arg.rfind("--root=", 0) == 0) {
      opt.root = arg.substr(7);
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json_out = arg.substr(7);
    } else if (arg == "--help" || arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      opt.paths.push_back(arg);
    }
  }
  if (opt.paths.empty()) return usage();

  const std::vector<std::string> files = collect_files(opt);
  if (files.empty()) {
    std::fprintf(stderr, "dfs_tidy_lite: nothing to scan\n");
    return 2;
  }

  if (opt.verify) {
    int rc = 0;
    for (const std::string& f : files) {
      const FileView view = parse_file(f, relative_display(f, opt.root),
                                       fs::path(f).generic_string());
      rc = std::max(rc, verify_fixture(opt, view));
    }
    return rc;
  }

  // Pair each .cpp with its sibling .hpp (and vice versa) so member
  // containers declared in the header are known when the source iterates
  // them — the repo's universal layout.
  std::vector<Finding> findings;
  for (const std::string& f : files) {
    const FileView view = parse_file(f, relative_display(f, opt.root),
                                     fs::path(f).generic_string());
    std::set<std::string> sibling_vars;
    const fs::path p(f);
    for (const char* ext : {".hpp", ".cpp", ".h"}) {
      fs::path sib = p;
      sib.replace_extension(ext);
      if (sib != p && fs::exists(sib)) {
        const FileView sv = parse_file(sib.generic_string(), "", "");
        std::set<std::string> aliases;
        harvest_unordered(tokenize(sv), aliases, sibling_vars);
      }
    }
    run_checks(opt, view, sibling_vars, findings);
  }

  for (const Finding& f : findings) {
    std::printf("%s:%d: warning: %s [%s]\n", f.file.c_str(), f.line,
                f.message.c_str(), f.check.c_str());
  }
  if (!opt.json_out.empty()) write_json(opt, findings, files.size());
  if (findings.empty()) {
    std::printf("dfs_tidy_lite: %zu file(s) clean\n", files.size());
  } else {
    std::printf("dfs_tidy_lite: %zu finding(s) in %zu file(s)\n",
                findings.size(), files.size());
  }
  return findings.empty() ? 0 : 1;
}

}  // namespace
}  // namespace dfsssp::tidy

int main(int argc, char** argv) {
  try {
    return dfsssp::tidy::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfs_tidy_lite: %s\n", e.what());
    return 2;
  }
}
