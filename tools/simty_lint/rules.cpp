#include "lint.hpp"
#include "lexer.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <set>
#include <string>
#include <tuple>
#include <utility>

namespace simty::lint {
namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool space_char(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

std::string normalize(std::string_view path) {
  std::string p(path);
  std::replace(p.begin(), p.end(), '\\', '/');
  while (p.rfind("./", 0) == 0) p.erase(0, 2);
  return p;
}

bool under_any(const std::string& path, const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(), [&](const std::string& pre) {
    return path.rfind(pre, 0) == 0 &&
           (path.size() == pre.size() || path[pre.size()] == '/');
  });
}

bool is_header(const std::string& path) {
  return path.ends_with(".hpp") || path.ends_with(".h");
}

std::string trimmed(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && space_char(s[b])) ++b;
  while (e > b && space_char(s[e - 1])) --e;
  return std::string(s.substr(b, e - b));
}

/// Shared per-file state: blanked lines, a joined view for multi-line
/// constructs, and the allow filter applied at emission time.
struct Ctx {
  std::string path;
  FileScan scan;
  std::string joined;                   // blanked code lines joined by '\n'
  std::vector<std::size_t> line_start;  // joined offset of each line
  std::vector<std::string> raw_lines;   // unblanked lines (include paths)
  std::vector<Finding>* out = nullptr;

  std::size_t line_of(std::size_t offset) const {
    const auto it = std::upper_bound(line_start.begin(), line_start.end(), offset);
    return static_cast<std::size_t>(it - line_start.begin()) - 1;
  }

  bool allowed(std::size_t line, const std::string& rule) const {
    const auto hit = [&](const std::vector<std::string>& v) {
      return std::find(v.begin(), v.end(), rule) != v.end();
    };
    return hit(scan.file_allows) ||
           (line < scan.line_allows.size() && hit(scan.line_allows[line]));
  }

  void emit(std::size_t line, const std::string& rule, std::string message) {
    if (allowed(line, rule)) return;
    out->push_back(Finding{path, static_cast<int>(line) + 1, rule, std::move(message)});
  }
};

const std::vector<std::string> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};

/// Skips a balanced <...> template-argument list starting at `pos` (which
/// must point at '<'); returns the offset just past the matching '>', or
/// npos when the brackets are unbalanced / interrupted by ';' or '{'.
std::size_t skip_angles(std::string_view s, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '<') ++depth;
    else if (c == '>') {
      --depth;
      if (depth == 0) return i + 1;
    } else if (c == ';' || c == '{') {
      return std::string_view::npos;
    }
  }
  return std::string_view::npos;
}

std::size_t skip_ws(std::string_view s, std::size_t pos) {
  while (pos < s.size() && space_char(s[pos])) ++pos;
  return pos;
}

std::string read_ident(std::string_view s, std::size_t pos, std::size_t* end = nullptr) {
  std::size_t e = pos;
  while (e < s.size() && ident_char(s[e])) ++e;
  if (end != nullptr) *end = e;
  return std::string(s.substr(pos, e - pos));
}

/// Finds word-boundary occurrences of `name` in `s`, calling fn(offset).
template <typename Fn>
void for_each_word(std::string_view s, std::string_view name, Fn&& fn) {
  std::size_t pos = 0;
  while ((pos = s.find(name, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !ident_char(s[pos - 1]);
    const std::size_t end = pos + name.size();
    const bool right_ok = end >= s.size() || !ident_char(s[end]);
    if (left_ok && right_ok) fn(pos);
    pos = end;
  }
}

/// Collects type aliases for unordered containers and identifiers declared
/// with an unordered container type (including via those aliases).
void collect_unordered(std::string_view joined, std::vector<std::string>& vars,
                       std::vector<std::string>& aliases) {
  auto scan_token = [&](const std::string& token, bool may_alias) {
    for_each_word(joined, token, [&](std::size_t pos) {
      // `using Alias = std::unordered_map<...>;` — record the alias name.
      if (may_alias) {
        std::size_t back = pos;
        while (back > 0 && (space_char(joined[back - 1]) || joined[back - 1] == ':')) --back;
        if (back >= 3 && joined.compare(back - 3, 3, "std") == 0 &&
            (back == 3 || !ident_char(joined[back - 4]))) {
          back -= 3;  // step over the `std` qualifier
        }
        while (back > 0 && space_char(joined[back - 1])) --back;
        if (back > 0 && joined[back - 1] == '=') {
          std::size_t name_end = back - 1;
          while (name_end > 0 && space_char(joined[name_end - 1])) --name_end;
          std::size_t name_begin = name_end;
          while (name_begin > 0 && ident_char(joined[name_begin - 1])) --name_begin;
          const std::string alias(joined.substr(name_begin, name_end - name_begin));
          if (!alias.empty()) aliases.push_back(alias);
          return;
        }
      }
      // `std::unordered_map<K, V> name` — record the declared name.
      std::size_t p = pos + token.size();
      p = skip_ws(joined, p);
      if (p < joined.size() && joined[p] == '<') {
        p = skip_angles(joined, p);
        if (p == std::string_view::npos) return;
      } else if (may_alias) {
        return;  // bare container token without template args: not a decl
      }
      for (;;) {
        p = skip_ws(joined, p);
        if (p < joined.size() && (joined[p] == '&' || joined[p] == '*')) { ++p; continue; }
        std::size_t e = 0;
        const std::string word = read_ident(joined, p, &e);
        if (word == "const" || word == "constexpr" || word == "static" || word == "inline" ||
            word == "mutable" || word == "thread_local") { p = e; continue; }
        if (!word.empty()) vars.push_back(word);
        return;
      }
    });
  };
  for (const auto& t : kUnorderedTypes) scan_token(t, /*may_alias=*/true);
  // Second pass: declarations through the aliases we just found.
  const std::vector<std::string> found = aliases;
  for (const auto& a : found) scan_token(a, /*may_alias=*/false);
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

void rule_wall_clock(Ctx& ctx) {
  static const std::vector<std::string> kClocks = {
      "system_clock", "steady_clock",  "high_resolution_clock", "utc_clock",
      "file_clock",   "gettimeofday",  "clock_gettime",         "timespec_get",
      "localtime",    "gmtime",        "strftime",              "mktime",
      "asctime",      "ctime",         "clock"};
  for (std::size_t l = 0; l < ctx.scan.code.size(); ++l) {
    for (const auto& tok : kClocks) {
      if (has_word(ctx.scan.code[l], tok)) {
        ctx.emit(l, "wall-clock",
                 "wall-clock source `" + tok +
                     "` in deterministic code; simulated time comes from "
                     "sim::Simulator::now()");
        break;
      }
    }
  }
}

void rule_raw_rand(Ctx& ctx) {
  static const std::vector<std::string> kRand = {
      "rand",     "srand",        "rand_r",       "drand48",
      "lrand48",  "random_device", "mt19937",     "mt19937_64",
      "minstd_rand", "minstd_rand0", "default_random_engine", "knuth_b",
      "ranlux24", "ranlux48",     "random_shuffle"};
  for (std::size_t l = 0; l < ctx.scan.code.size(); ++l) {
    for (const auto& tok : kRand) {
      if (has_word(ctx.scan.code[l], tok)) {
        ctx.emit(l, "raw-rand",
                 "unseeded/non-reproducible randomness `" + tok +
                     "` in deterministic code; draw from a seeded simty::Rng");
        break;
      }
    }
  }
}

void rule_std_hash(Ctx& ctx) {
  for (std::size_t l = 0; l < ctx.scan.code.size(); ++l) {
    if (has_word(ctx.scan.code[l], "std::hash")) {
      ctx.emit(l, "std-hash",
               "std::hash values are implementation-defined; deterministic "
               "logic must not depend on them");
    }
  }
}

void rule_unordered_iter(Ctx& ctx, const Options& opts) {
  std::vector<std::string> vars = opts.extra_unordered_names;
  std::vector<std::string> aliases;
  collect_unordered(ctx.joined, vars, aliases);
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());

  const std::string_view joined = ctx.joined;
  auto flag = [&](std::size_t offset, const std::string& what) {
    ctx.emit(ctx.line_of(offset), "unordered-iter",
             what + ": unordered-container iteration order is not "
                    "deterministic; iterate a sorted copy or an ordered container");
  };

  // `name.begin()` / `name->cend()` ... on a known unordered variable.
  static const std::vector<std::string> kIterFns = {"begin", "end",   "cbegin",
                                                    "cend",  "rbegin", "rend"};
  for (const auto& var : vars) {
    for_each_word(joined, var, [&](std::size_t pos) {
      std::size_t p = skip_ws(joined, pos + var.size());
      if (p < joined.size() && joined[p] == '.') {
        ++p;
      } else if (p + 1 < joined.size() && joined[p] == '-' && joined[p + 1] == '>') {
        p += 2;
      } else {
        return;
      }
      p = skip_ws(joined, p);
      std::size_t e = 0;
      const std::string fn = read_ident(joined, p, &e);
      e = skip_ws(joined, e);
      if (e < joined.size() && joined[e] == '(' &&
          std::find(kIterFns.begin(), kIterFns.end(), fn) != kIterFns.end()) {
        flag(pos, "`" + var + "." + fn + "()`");
      }
    });
  }

  // Range-for whose range expression names an unordered variable or type.
  for_each_word(joined, "for", [&](std::size_t pos) {
    std::size_t p = skip_ws(joined, pos + 3);
    if (p >= joined.size() || joined[p] != '(') return;
    int depth = 0;
    std::size_t colon = std::string_view::npos;
    std::size_t close = std::string_view::npos;
    for (std::size_t i = p; i < joined.size(); ++i) {
      const char c = joined[i];
      if (c == '(') ++depth;
      else if (c == ')') {
        if (--depth == 0) { close = i; break; }
      } else if (depth == 1 && c == ';') {
        return;  // classic three-clause for
      } else if (depth == 1 && c == ':' && colon == std::string_view::npos) {
        if ((i > 0 && joined[i - 1] == ':') || (i + 1 < joined.size() && joined[i + 1] == ':')) {
          continue;  // `::` qualifier
        }
        colon = i;
      }
    }
    if (colon == std::string_view::npos || close == std::string_view::npos) return;
    const std::string_view range = joined.substr(colon + 1, close - colon - 1);
    for (const auto& t : kUnorderedTypes) {
      if (has_word(range, t)) { flag(pos, "range-for over unordered container"); return; }
    }
    for (const auto& var : vars) {
      if (has_word(range, var)) {
        flag(pos, "range-for over unordered `" + var + "`");
        return;
      }
    }
  });
}

void rule_float_time(Ctx& ctx) {
  static const std::vector<std::string> kCtors = {
      "Duration::micros", "Duration::millis", "Duration::seconds",
      "Duration::minutes", "Duration::hours", "TimePoint::from_us"};
  auto has_float = [](std::string_view arg) {
    if (has_word(arg, "double") || has_word(arg, "float") || has_word(arg, "seconds_f")) {
      return true;
    }
    for (std::size_t i = 1; i + 1 < arg.size(); ++i) {
      const bool digit_l = std::isdigit(static_cast<unsigned char>(arg[i - 1])) != 0;
      if (!digit_l) continue;
      if (arg[i] == '.' && std::isdigit(static_cast<unsigned char>(arg[i + 1])) != 0) return true;
      if ((arg[i] == 'e' || arg[i] == 'E') &&
          (std::isdigit(static_cast<unsigned char>(arg[i + 1])) != 0 || arg[i + 1] == '+' ||
           arg[i + 1] == '-')) {
        return true;
      }
    }
    return false;
  };
  for (const auto& ctor : kCtors) {
    for_each_word(ctx.joined, ctor, [&](std::size_t pos) {
      std::size_t p = skip_ws(ctx.joined, pos + ctor.size());
      if (p >= ctx.joined.size() || ctx.joined[p] != '(') return;
      int depth = 0;
      std::size_t close = std::string_view::npos;
      for (std::size_t i = p; i < ctx.joined.size(); ++i) {
        if (ctx.joined[i] == '(') ++depth;
        else if (ctx.joined[i] == ')' && --depth == 0) { close = i; break; }
      }
      if (close == std::string_view::npos) return;
      const std::string_view arg = std::string_view(ctx.joined).substr(p + 1, close - p - 1);
      if (has_float(arg)) {
        ctx.emit(ctx.line_of(pos), "float-time",
                 "floating-point expression fed to `" + ctor +
                     "`; construct simulated time from integer ticks, or round "
                     "explicitly through Duration::from_seconds / operator*(double)");
      }
    });
  }
}

void rule_std_function(Ctx& ctx) {
  for (std::size_t l = 0; l < ctx.scan.code.size(); ++l) {
    if (has_word(ctx.scan.code[l], "std::function")) {
      ctx.emit(l, "std-function",
               "std::function in the event hot path heap-allocates; use "
               "sim::EventFn (inline storage, no heap fallback)");
    }
  }
}

void rule_string_label(Ctx& ctx) {
  for (std::size_t l = 0; l < ctx.scan.code.size(); ++l) {
    if (has_word(ctx.scan.code[l], "std::string")) {
      ctx.emit(l, "string-label",
               "std::string in the event hot path allocates per event; use "
               "const char* literals or sim::intern_label()");
    }
  }
}

void rule_assert(Ctx& ctx) {
  for (std::size_t l = 0; l < ctx.scan.code.size(); ++l) {
    const std::string& code = ctx.scan.code[l];
    const std::string t = trimmed(code);
    if (t.rfind("#include", 0) == 0 &&
        (t.find("<cassert>") != std::string::npos ||
         t.find("<assert.h>") != std::string::npos)) {
      ctx.emit(l, "assert",
               "<cassert> is compiled out in release builds; use SIMTY_CHECK "
               "from common/check.hpp");
      continue;
    }
    for_each_word(code, "assert", [&](std::size_t pos) {
      const std::size_t p = skip_ws(code, pos + 6);
      if (p < code.size() && code[p] == '(') {
        ctx.emit(l, "assert",
                 "assert() vanishes under NDEBUG and aborts instead of "
                 "throwing; use SIMTY_CHECK / SIMTY_CHECK_MSG");
      }
    });
  }
}

/// A policy scans the batch queue once per placement, in select_batch (the
/// paper's search over the entry queue). Any other O(n) sweep of the queue
/// in a policy file — a for loop bounded by `queue.size()`/`queue->size()`
/// or a range-for over `queue` — adds a second full scan to every insert.
/// The one deliberate scan carries an allow() comment.
void rule_queue_scan(Ctx& ctx) {
  const std::string_view joined = ctx.joined;
  for_each_word(joined, "for", [&](std::size_t pos) {
    std::size_t p = skip_ws(joined, pos + 3);
    if (p >= joined.size() || joined[p] != '(') return;
    int depth = 0;
    std::size_t close = std::string_view::npos;
    std::size_t colon = std::string_view::npos;
    bool classic = false;
    for (std::size_t i = p; i < joined.size(); ++i) {
      const char c = joined[i];
      if (c == '(') ++depth;
      else if (c == ')') {
        if (--depth == 0) { close = i; break; }
      } else if (depth == 1 && c == ';') {
        classic = true;
      } else if (depth == 1 && c == ':' && colon == std::string_view::npos) {
        if ((i > 0 && joined[i - 1] == ':') ||
            (i + 1 < joined.size() && joined[i + 1] == ':')) {
          continue;  // `::` qualifier
        }
        colon = i;
      }
    }
    if (close == std::string_view::npos) return;
    bool scan = false;
    if (classic) {
      // `queue.size()` / `queue->size()` somewhere in the loop header.
      const std::string_view header = joined.substr(p, close - p + 1);
      for_each_word(header, "queue", [&](std::size_t qpos) {
        std::size_t q = skip_ws(header, qpos + 5);
        if (q < header.size() && header[q] == '.') {
          ++q;
        } else if (q + 1 < header.size() && header[q] == '-' && header[q + 1] == '>') {
          q += 2;
        } else {
          return;
        }
        q = skip_ws(header, q);
        std::size_t e = 0;
        if (read_ident(header, q, &e) != "size") return;
        e = skip_ws(header, e);
        if (e < header.size() && header[e] == '(') scan = true;
      });
    } else if (colon != std::string_view::npos) {
      const std::string_view range = joined.substr(colon + 1, close - colon - 1);
      if (has_word(range, "queue")) scan = true;
    }
    if (scan) {
      ctx.emit(ctx.line_of(pos), "queue-scan",
               "O(n) sweep of the batch queue in a policy file; a policy "
               "scans the queue once, in select_batch — mark that one scan "
               "with an allow comment");
    }
  });
}

/// Hot-path files own their storage through the arena-backed types (Arena,
/// ArenaVector, EventFn): a std::vector/map/... or std::function declared
/// here heap-allocates on growth and defeats the O(1) whole-run arena
/// reset. References and pointers to owning containers are fine (borrowing
/// is not owning), as are the arena-backed types themselves (they are not
/// std:: names, so they never match).
void rule_hot_path_owning(Ctx& ctx, bool fn_rules_active) {
  const std::string_view joined = ctx.joined;
  auto check_token = [&](const std::string& tok, bool needs_angles) {
    for_each_word(joined, tok, [&](std::size_t pos) {
      // Only the std:: spellings are owning; project types reusing a name
      // (e.g. a member function called `list`) must not match.
      if (pos < 5 || joined.compare(pos - 2, 2, "::") != 0) return;
      std::size_t q = pos - 2;
      if (q < 3 || joined.compare(q - 3, 3, "std") != 0) return;
      if (q > 3 && ident_char(joined[q - 4])) return;
      std::size_t p = skip_ws(joined, pos + tok.size());
      if (needs_angles) {
        if (p >= joined.size() || joined[p] != '<') return;
        p = skip_angles(joined, p);
        if (p == std::string_view::npos) return;
        p = skip_ws(joined, p);
      }
      // `const std::vector<T>&` / `std::vector<T>*`: borrowed, not owned.
      if (p < joined.size() && (joined[p] == '&' || joined[p] == '*')) return;
      ctx.emit(ctx.line_of(pos), "hot-path-owning",
               "owning `std::" + tok +
                   "` in a hot-path file; use the arena-backed types "
                   "(common::ArenaVector / common::Arena / sim::EventFn), or "
                   "mark deliberate cold-path storage with an allow comment");
    });
  };
  static const std::vector<std::string> kOwning = {
      "vector", "map", "set", "multimap", "multiset", "deque",
      "list",   "forward_list"};
  for (const auto& t : kOwning) check_token(t, /*needs_angles=*/true);
  for (const auto& t : kUnorderedTypes) check_token(t, /*needs_angles=*/true);
  // std::function / std::string are already covered by the std-function and
  // string-label rules where those run; only pick them up elsewhere.
  if (!fn_rules_active) {
    check_token("function", /*needs_angles=*/true);
    check_token("string", /*needs_angles=*/false);
  }
}

void rule_pragma_once(Ctx& ctx) {
  for (std::size_t l = 0; l < ctx.scan.code.size(); ++l) {
    const std::string t = trimmed(ctx.scan.code[l]);
    if (t.empty()) continue;
    if (t.rfind("#pragma", 0) == 0 && t.find("once") != std::string::npos) return;
    ctx.emit(l, "pragma-once",
             "header must open with `#pragma once` (before any code)");
    return;
  }
}

void rule_include_hygiene(Ctx& ctx) {
  std::set<std::string> seen;
  for (std::size_t l = 0; l < ctx.scan.code.size(); ++l) {
    const std::string t = trimmed(ctx.scan.code[l]);
    if (t.rfind("#include", 0) != 0) continue;
    // The blanked line keeps the quotes but not the path; recover the raw
    // path from the original via the line's structure: everything between
    // the delimiters is spaces in `code`, so use delimiters only.
    const std::size_t open = t.find_first_of("<\"", 8);
    if (open == std::string::npos) continue;
    const char close_ch = t[open] == '<' ? '>' : '"';
    const std::size_t close = t.find(close_ch, open + 1);
    if (close == std::string::npos) continue;
    const std::string raw_line = trimmed(ctx.raw_lines[l]);
    const std::size_t raw_open = raw_line.find_first_of("<\"", 8);
    const std::size_t raw_close =
        raw_open == std::string::npos ? std::string::npos : raw_line.find(close_ch, raw_open + 1);
    if (raw_open == std::string::npos || raw_close == std::string::npos) continue;
    const std::string path = raw_line.substr(raw_open + 1, raw_close - raw_open - 1);
    if (path.find("../") != std::string::npos) {
      ctx.emit(l, "include-hygiene",
               "parent-relative include \"" + path +
                   "\"; include project headers by repo-relative path");
    }
    if (!seen.insert(std::string(1, t[open]) + path).second) {
      ctx.emit(l, "include-hygiene", "duplicate include of \"" + path + "\"");
    }
  }
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "wall-clock", "raw-rand",     "std-hash",     "unordered-iter",
      "float-time", "std-function", "string-label", "assert",
      "pragma-once", "include-hygiene", "queue-scan", "hot-path-owning"};
  return kNames;
}

std::vector<std::string> unordered_names_in(std::string_view content) {
  const FileScan scan = scan_source(content);
  std::string joined;
  for (const auto& line : scan.code) {
    joined += line;
    joined += '\n';
  }
  std::vector<std::string> vars;
  std::vector<std::string> aliases;
  collect_unordered(joined, vars, aliases);
  return vars;
}

std::vector<Finding> lint_source(std::string_view rel_path, std::string_view content,
                                 const Options& opts) {
  std::vector<Finding> out;
  Ctx ctx;
  ctx.path = normalize(rel_path);
  ctx.scan = scan_source(content);
  ctx.out = &out;
  std::size_t start = 0;
  for (const auto& code_line : ctx.scan.code) {
    ctx.line_start.push_back(start);
    start += code_line.size() + 1;
    ctx.joined += code_line;
    ctx.joined += '\n';
  }
  // Keep the raw (unblanked) lines around for include-path extraction.
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= content.size(); ++i) {
    if (i == content.size() || content[i] == '\n') {
      ctx.raw_lines.emplace_back(content.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  while (ctx.raw_lines.size() < ctx.scan.code.size()) ctx.raw_lines.emplace_back();

  const bool det = under_any(ctx.path, opts.deterministic_prefixes);
  const bool hot = under_any(ctx.path, opts.hot_path_prefixes);

  if (is_header(ctx.path)) rule_pragma_once(ctx);
  rule_include_hygiene(ctx);
  rule_assert(ctx);
  rule_unordered_iter(ctx, opts);
  if (det) {
    rule_wall_clock(ctx);
    rule_raw_rand(ctx);
    rule_std_hash(ctx);
    rule_float_time(ctx);
  }
  if (hot) {
    rule_std_function(ctx);
    rule_string_label(ctx);
  }
  if (under_any(ctx.path, opts.owning_hot_path_prefixes)) {
    rule_hot_path_owning(ctx, hot);
  }
  // Alignment-policy files only: src/alarm sources whose name marks them as
  // a policy implementation.
  static const std::vector<std::string> kAlarmPrefix = {"src/alarm"};
  const std::string base = ctx.path.substr(ctx.path.find_last_of('/') + 1);
  if (under_any(ctx.path, kAlarmPrefix) &&
      base.find("policy") != std::string::npos) {
    rule_queue_scan(ctx);
  }

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
  });
  return out;
}

}  // namespace simty::lint
