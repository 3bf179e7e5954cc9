// Structural parser: blanked source -> FileModel (see model.hpp).
//
// Built on the shared simty_lint lexer (comments/strings blanked), then:
// preprocessor lines are blanked too (a do{}while(0) macro body would
// otherwise unbalance the brace matcher), braces are matched in one pass,
// and every '{' is classified from its "head" — the text since the last
// top-level ';', '{' or '}' — as namespace / class / function / block.
// Function bodies are then scanned for calls and nondeterminism seeds.
// This is heuristic by design; see DESIGN.md §6.4 for the contract (and
// the fixture tests for what it is pinned to handle).

#include "model.hpp"

#include <algorithm>
#include <cctype>

#include "lexer.hpp"  // from simty_lint (shared scanner; on the include path via simty_lint_core)

namespace simty::analyze {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool is_keyword(std::string_view w) {
  static const std::vector<std::string_view> kw = {
      "if",       "for",     "while",    "switch",     "catch",        "return",
      "sizeof",   "alignof", "decltype", "noexcept",   "throw",        "new",
      "delete",   "co_await","co_return","co_yield",   "static_assert","requires",
      "alignas",  "typeid",  "assert",   "SIMTY_REQUIRES", "SIMTY_EXCLUDES",
      "__attribute__"};
  return std::find(kw.begin(), kw.end(), w) != kw.end();
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

bool has_word(std::string_view text, std::string_view word) {
  for (std::size_t pos = text.find(word); pos != std::string_view::npos;
       pos = text.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || !ident_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !ident_char(text[end]);
    if (left_ok && right_ok) return true;
  }
  return false;
}

/// Reads the `a::b::c` identifier chain ending just before `end` (exclusive),
/// skipping trailing whitespace. Returns empty if none.
std::string chain_before(std::string_view text, std::size_t end) {
  std::size_t i = end;
  while (i > 0 && std::isspace(static_cast<unsigned char>(text[i - 1]))) --i;
  const std::size_t stop = i;
  while (i > 0) {
    if (ident_char(text[i - 1])) {
      --i;
    } else if (i >= 2 && text[i - 1] == ':' && text[i - 2] == ':') {
      i -= 2;
    } else if (text[i - 1] == '~') {  // destructor name
      --i;
      break;
    } else {
      break;
    }
  }
  if (i == stop) return {};
  return std::string(text.substr(i, stop - i));
}

std::string last_component(std::string_view qualified) {
  const std::size_t pos = qualified.rfind("::");
  return std::string(pos == std::string_view::npos ? qualified : qualified.substr(pos + 2));
}

/// Offset of the ')' matching the '(' at `open`, or npos.
std::size_t match_paren(std::string_view text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string_view::npos;
}

struct HeadParse {
  bool is_function = false;
  std::string qualified;
  std::size_t name_offset = 0;  // relative to the head
};

/// True if `tail` (the text between a candidate parameter list's ')' and the
/// '{') is made only of definition qualifiers: const, noexcept[(..)],
/// override, final, mutable, ref-qualifiers, try, a trailing return type, a
/// requires-clause, or SIMTY_REQUIRES/SIMTY_EXCLUDES annotations.
bool tail_ok(std::string_view tail) {
  std::size_t i = 0;
  while (i < tail.size()) {
    const char c = tail[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '&') {  // ref-qualifier & / &&
      ++i;
      continue;
    }
    if (tail.compare(i, 2, "->") == 0) return true;  // trailing return: rest is the type
    if (!ident_char(c)) return false;
    std::size_t j = i;
    while (j < tail.size() && ident_char(tail[j])) ++j;
    const std::string_view word = tail.substr(i, j - i);
    if (word == "requires") return true;  // constraint: rest is the clause
    if (word == "const" || word == "override" || word == "final" || word == "mutable" ||
        word == "try" || word == "volatile") {
      i = j;
      continue;
    }
    if (word == "noexcept" || word == "throw" || word == "SIMTY_REQUIRES" ||
        word == "SIMTY_EXCLUDES" || word == "__attribute__") {
      i = j;
      while (i < tail.size() && std::isspace(static_cast<unsigned char>(tail[i]))) ++i;
      if (i < tail.size() && tail[i] == '(') {
        const std::size_t close = match_paren(tail, i);
        if (close == std::string_view::npos) return false;
        i = close + 1;
      }
      continue;
    }
    return false;
  }
  return true;
}

/// Decides whether `head` (text between the previous statement boundary and
/// a '{') is a function definition, and if so which one.
HeadParse parse_head(std::string_view head) {
  HeadParse out;
  // A depth-0 ':' that is not '::' starts a constructor init list (class
  // heads were already classified away); name-finding looks left of it.
  std::size_t limit = head.size();
  int depth = 0;
  for (std::size_t i = 0; i < head.size(); ++i) {
    const char c = head[i];
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (depth == 0 && c == ':' &&
        (i + 1 >= head.size() || head[i + 1] != ':') && (i == 0 || head[i - 1] != ':')) {
      limit = i;
      break;
    }
  }
  const std::string_view h = head.substr(0, limit);

  // Walk depth-0 '(' from last to first; the parameter list is the last one
  // preceded by a plain identifier chain (skipping noexcept(...) and
  // annotation parens via the keyword list).
  std::vector<std::size_t> opens;
  depth = 0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h[i] == '(') {
      if (depth == 0) opens.push_back(i);
      ++depth;
    }
    if (h[i] == ')') --depth;
  }
  for (auto it = opens.rbegin(); it != opens.rend(); ++it) {
    const std::size_t open = *it;
    std::string name = chain_before(h, open);
    std::size_t name_off;
    if (name.empty()) {
      // operator()/operator==/...: identifier chain reads empty because the
      // name ends in symbols; look for the `operator` keyword just before.
      std::size_t k = open;
      while (k > 0 && !ident_char(h[k - 1])) --k;
      const std::string word = chain_before(h, k);
      if (last_component(word) != "operator") continue;
      name = word + std::string(trim(h.substr(k, open - k)));
      name_off = k - word.size();
    } else {
      name_off = open;
      while (name_off > 0 && std::isspace(static_cast<unsigned char>(h[name_off - 1]))) --name_off;
      name_off -= name.size();
      if (is_keyword(last_component(name))) continue;
    }
    const std::size_t close = match_paren(h, open);
    if (close == std::string_view::npos) continue;
    if (!tail_ok(head.substr(close + 1, limit - close - 1))) continue;
    // `= foo(...)` / `, foo(...)` heads are initializers, not definitions.
    std::size_t p = name_off;
    while (p > 0 && std::isspace(static_cast<unsigned char>(h[p - 1]))) --p;
    if (p > 0 && (h[p - 1] == '=' || h[p - 1] == ',')) continue;
    out.is_function = true;
    out.qualified = name;
    out.name_offset = name_off;
    return out;
  }
  return out;
}

bool head_is_class(std::string_view head) {
  // Class-like iff a class keyword is present and the head has no parameter
  // list — `struct tm` as a function's return/param type never reaches here
  // paren-free, and a class head with parens (alignas) is rare enough to
  // punt on.
  if (head.find('(') != std::string_view::npos) return false;
  return has_word(head, "class") || has_word(head, "struct") || has_word(head, "union") ||
         has_word(head, "enum");
}

std::string class_name_of(std::string_view head) {
  for (const char* kw : {"class", "struct", "union", "enum"}) {
    std::size_t pos = head.find(kw);
    while (pos != std::string_view::npos) {
      const bool l = pos == 0 || !ident_char(head[pos - 1]);
      const std::size_t e = pos + std::string_view(kw).size();
      if (l && (e >= head.size() || !ident_char(head[e]))) {
        std::size_t i = e;
        // skip attributes / "final" is after the name; take first identifier
        while (i < head.size()) {
          while (i < head.size() && !ident_char(head[i])) ++i;
          std::size_t j = i;
          while (j < head.size() && ident_char(head[j])) ++j;
          const std::string_view w = head.substr(i, j - i);
          if (w == "alignas" || w == "class") {  // "enum class"
            i = j;
            continue;
          }
          return std::string(w);
        }
        return {};
      }
      pos = head.find(kw, pos + 1);
    }
  }
  return {};
}

}  // namespace

int line_of(const FileModel& model, std::size_t offset) {
  auto it = std::upper_bound(model.line_start.begin(), model.line_start.end(), offset);
  return static_cast<int>(it - model.line_start.begin());
}

namespace {

bool allows(const FileModel& m, int line, std::string_view check) {
  if (std::find(m.file_allows.begin(), m.file_allows.end(), check) != m.file_allows.end())
    return true;
  if (line < 1 || static_cast<std::size_t>(line) > m.line_allows.size()) return false;
  const auto& v = m.line_allows[static_cast<std::size_t>(line) - 1];
  return std::find(v.begin(), v.end(), check) != v.end();
}

/// Fills calls/seeds for one function body (offsets into m.joined).
void scan_body(FileModel& m, Function& fn) {
  const std::string_view text = m.joined;
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const char c = text[i];
    if (!ident_char(c) || (i > 0 && ident_char(text[i - 1]))) continue;
    // `i` starts an identifier word.
    std::size_t j = i;
    while (j < text.size() && ident_char(text[j])) ++j;
    const std::string_view word = text.substr(i, j - i);
    const int line = line_of(m, i);

    // --- nondeterminism seeds ---------------------------------------------
    const auto qualified_by = [&](std::string_view prefix) {
      return i >= prefix.size() && text.compare(i - prefix.size(), prefix.size(), prefix) == 0;
    };
    std::string seed;
    if (word == "system_clock" || word == "steady_clock" || word == "high_resolution_clock" ||
        word == "random_device") {
      seed = std::string(word);
    } else if (word == "rand" || word == "srand" || word == "getenv" || word == "time") {
      std::size_t k = j;
      while (k < text.size() && std::isspace(static_cast<unsigned char>(text[k]))) ++k;
      const bool is_call = k < text.size() && text[k] == '(';
      const bool member = i >= 1 && (text[i - 1] == '.' || qualified_by("->"));
      // `time` only counts qualified (::time / std::time) — simulator code is
      // full of members and locals named `time` that have nothing to do with
      // the libc wall clock.
      const bool qualified_time = qualified_by("std::") || qualified_by("::");
      if (is_call && !member && (word != "time" || qualified_time)) {
        seed = std::string(word);
      }
    } else if (word == "hash" && qualified_by("std::")) {
      seed = "std::hash";
    } else if (word == "get_id" && qualified_by("this_thread::")) {
      seed = "this_thread::get_id";
    } else if (word == "reinterpret_cast") {
      const std::size_t lt = text.find('<', j);
      if (lt != std::string_view::npos && lt < fn.body_end) {
        const std::size_t gt = text.find('>', lt);
        if (gt != std::string_view::npos &&
            text.substr(lt, gt - lt).find("intptr") != std::string_view::npos) {
          seed = "reinterpret_cast<uintptr_t>";
        }
      }
    }
    if (!seed.empty()) {
      fn.seeds.push_back({seed, line, allows(m, line, "taint")});
      i = j - 1;
      continue;
    }

    // --- calls -------------------------------------------------------------
    std::size_t k = j;
    while (k < text.size() && std::isspace(static_cast<unsigned char>(text[k]))) ++k;
    if (k < text.size() && text[k] == '(' && !is_keyword(word)) {
      // Extend left through :: qualifiers so `detail::now_ms(` records the
      // qualified name; `obj.method(` records just `method`.
      const std::string full = chain_before(text, j);
      fn.calls.push_back({full.empty() ? std::string(word) : full, line});
    }
    i = j - 1;
  }
}

}  // namespace

FileModel build_model(const std::string& path, const std::string& content) {
  FileModel m;
  m.path = path;

  const lint::FileScan scan = lint::scan_source(content, "simty-analyze:");
  m.file_allows = scan.file_allows;
  m.line_allows = scan.line_allows;

  // Includes come from the raw lines (the lexer blanks the "..." spelling).
  {
    std::size_t line_begin = 0;
    int line_no = 0;
    while (line_begin <= content.size()) {
      std::size_t line_end = content.find('\n', line_begin);
      if (line_end == std::string::npos) line_end = content.size();
      std::string_view line(content.data() + line_begin, line_end - line_begin);
      ++line_no;
      std::string_view t = trim(line);
      if (!t.empty() && t.front() == '#') {
        t.remove_prefix(1);
        t = trim(t);
        if (t.rfind("include", 0) == 0) {
          t.remove_prefix(7);
          t = trim(t);
          if (!t.empty() && t.front() == '"') {
            const std::size_t close = t.find('"', 1);
            if (close != std::string_view::npos) {
              Include inc;
              inc.spelled = std::string(t.substr(1, close - 1));
              inc.line = line_no;
              m.includes.push_back(inc);
            }
          }
        } else if (t.rfind("define", 0) == 0) {
          t.remove_prefix(6);
          t = trim(t);
          std::size_t j = 0;
          while (j < t.size() && ident_char(t[j])) ++j;
          if (j > 0) m.provided.push_back(std::string(t.substr(0, j)));
        }
      }
      if (line_end == content.size()) break;
      line_begin = line_end + 1;
    }
  }

  // Joined blanked text, with preprocessor lines (and their backslash
  // continuations) blanked so macro-body braces never reach the matcher.
  {
    std::vector<std::string> lines = scan.code;
    bool continued = false;
    for (auto& line : lines) {
      const bool this_is_pp = [&] {
        for (char c : line) {
          if (std::isspace(static_cast<unsigned char>(c))) continue;
          return c == '#';
        }
        return false;
      }();
      const bool blank = this_is_pp || continued;
      continued = blank && !line.empty() && line.back() == '\\';
      if (blank) std::fill(line.begin(), line.end(), ' ');
    }
    m.joined.clear();
    m.line_start.clear();
    for (const auto& line : lines) {
      m.line_start.push_back(m.joined.size());
      m.joined += line;
      m.joined += '\n';
    }
  }

  const std::string_view text = m.joined;

  // Incomplete-include allow flags need line_allows, set now.
  for (auto& inc : m.includes) inc.allowed = allows(m, inc.line, "include");

  // Brace matching in one pass.
  std::vector<std::size_t> match_open, match_close;  // parallel, sorted by open
  {
    std::vector<std::size_t> stack;
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '{') stack.push_back(i);
      if (text[i] == '}' && !stack.empty()) {
        pairs.emplace_back(stack.back(), i);
        stack.pop_back();
      }
    }
    std::sort(pairs.begin(), pairs.end());
    match_open.reserve(pairs.size());
    match_close.reserve(pairs.size());
    for (const auto& [o, c] : pairs) {
      match_open.push_back(o);
      match_close.push_back(c);
    }
  }
  const auto close_of = [&](std::size_t open) -> std::size_t {
    const auto it = std::lower_bound(match_open.begin(), match_open.end(), open);
    if (it == match_open.end() || *it != open) return text.size();
    return match_close[static_cast<std::size_t>(it - match_open.begin())];
  };

  // Scope walk: classify every '{'.
  enum class Kind { kNs, kClass, kFunc, kBlock, kOther };
  struct Scope {
    Kind kind;
    std::size_t func = std::size_t(-1);
    std::string class_name;
  };
  std::vector<Scope> stack;
  std::size_t head_start = 0;
  int paren_depth = 0;
  const auto in_function = [&] {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == Kind::kFunc || it->kind == Kind::kBlock) return true;
      if (it->kind == Kind::kClass || it->kind == Kind::kNs) return false;
    }
    return false;
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(') ++paren_depth;
    if (c == ')') --paren_depth;
    if (c == '{') {
      Scope s{Kind::kOther, std::size_t(-1), {}};
      if (in_function()) {
        s.kind = Kind::kBlock;
      } else {
        const std::string_view head = trim(text.substr(head_start, i - head_start));
        std::string enclosing;
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          if (it->kind == Kind::kClass) {
            enclosing = it->class_name;
            break;
          }
        }
        if (has_word(head, "namespace")) {
          s.kind = Kind::kNs;
        } else if (head_is_class(head)) {
          s.kind = Kind::kClass;
          s.class_name = class_name_of(head);
          if (!s.class_name.empty()) m.provided.push_back(s.class_name);
        } else {
          const HeadParse hp = parse_head(head);
          if (hp.is_function) {
            Function fn;
            fn.qualified = hp.qualified;
            fn.name = last_component(hp.qualified);
            if (!fn.name.empty() && fn.name.front() == '~') fn.name.erase(fn.name.begin());
            // `head` is a trimmed view into `text`, so pointer arithmetic
            // recovers the absolute offset of the function name.
            const std::size_t name_abs =
                static_cast<std::size_t>(head.data() - text.data()) + hp.name_offset;
            fn.line = line_of(m, name_abs);
            fn.display = m.path + ":" + std::to_string(fn.line) + " " + fn.qualified;
            fn.body_begin = i + 1;
            fn.body_end = close_of(i);
            // allow(taint) anywhere on the definition head or the '{' line.
            for (int ln = line_of(m, head_start); ln <= line_of(m, i); ++ln) {
              if (allows(m, ln, "taint")) fn.taint_allowed = true;
            }
            if (!enclosing.empty() && fn.qualified.find("::") == std::string::npos) {
              fn.qualified = enclosing + "::" + fn.qualified;
            }
            m.provided.push_back(fn.name);
            s.kind = Kind::kFunc;
            s.func = m.functions.size();
            m.functions.push_back(std::move(fn));
          }
        }
      }
      stack.push_back(std::move(s));
      head_start = i + 1;
      continue;
    }
    if (c == '}') {
      if (!stack.empty()) stack.pop_back();
      head_start = i + 1;
      continue;
    }
    if (c == ';' && paren_depth == 0) {
      // A body-less declaration provides its function too: a caller of a
      // function defined in another file still uses the declaring header.
      if (!in_function()) {
        const HeadParse hp = parse_head(trim(text.substr(head_start, i - head_start)));
        if (hp.is_function) m.provided.push_back(last_component(hp.qualified));
      }
      head_start = i + 1;
    }
    // Access specifiers are statement boundaries too — otherwise a member
    // defined right after `public:` never parses (the ':' would read as a
    // constructor init list).
    if (c == ':' && paren_depth == 0) {
      const std::string_view head = trim(text.substr(head_start, i - head_start));
      if (head == "public" || head == "private" || head == "protected") head_start = i + 1;
    }
  }

  // Provided names also pick up type aliases for the IWYU pass.
  for (std::size_t pos = text.find("using "); pos != std::string_view::npos;
       pos = text.find("using ", pos + 1)) {
    if (pos > 0 && ident_char(text[pos - 1])) continue;
    std::size_t i = pos + 6;
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t j = i;
    while (j < text.size() && ident_char(text[j])) ++j;
    std::size_t k = j;
    while (k < text.size() && std::isspace(static_cast<unsigned char>(text[k]))) ++k;
    if (j > i && k < text.size() && text[k] == '=') m.provided.push_back(std::string(text.substr(i, j - i)));
  }

  // Body scans (calls / seeds) for every parsed function.
  for (auto& fn : m.functions) scan_body(m, fn);

  std::sort(m.provided.begin(), m.provided.end());
  m.provided.erase(std::unique(m.provided.begin(), m.provided.end()), m.provided.end());
  return m;
}

}  // namespace simty::analyze
