#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace arclint {

namespace {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// True when `word` occurs in `text` as a whole identifier token.
bool contains_word(std::string_view text, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !is_ident(text[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// True when `word` occurs as a whole token followed by a call's `(`
/// (whitespace tolerated): `topic(` but not `topic ==`.
bool calls_word(std::string_view text, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident(text[pos - 1]);
    std::size_t i = pos + word.size();
    const bool right_ok = i >= text.size() || !is_ident(text[i]);
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (left_ok && right_ok && i < text.size() && text[i] == '(') return true;
    pos += 1;
  }
  return false;
}

/// True when `word` occurs as a whole token immediately qualified by
/// `std::` (whitespace around `::` tolerated).
bool contains_std_word(std::string_view text, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string_view::npos) {
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !is_ident(text[end]);
    // Scan left over whitespace to find "::" then "std".
    std::size_t i = pos;
    while (i > 0 && std::isspace(static_cast<unsigned char>(text[i - 1]))) --i;
    bool left_ok = false;
    if (i >= 2 && text[i - 1] == ':' && text[i - 2] == ':') {
      i -= 2;
      while (i > 0 && std::isspace(static_cast<unsigned char>(text[i - 1]))) {
        --i;
      }
      if (i >= 3 && text.substr(i - 3, 3) == "std" &&
          (i == 3 || !is_ident(text[i - 4]))) {
        left_ok = true;
      }
    }
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// True when the line is `#include <header>` for one of `headers`.
bool includes_header(std::string_view text,
                     const std::vector<std::string_view>& headers) {
  std::size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  if (i >= text.size() || text[i] != '#') return false;
  ++i;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  if (text.substr(i, 7) != "include") return false;
  const std::size_t open = text.find('<', i);
  if (open == std::string_view::npos) return false;
  const std::size_t close = text.find('>', open);
  if (close == std::string_view::npos) return false;
  const std::string_view header = text.substr(open + 1, close - open - 1);
  return std::find(headers.begin(), headers.end(), header) != headers.end();
}

/// True when the line is `#include "header"` for one of `headers`. Quoted
/// includes must be matched on the RAW line: the stripper blanks the quoted
/// path like any other string literal.
bool includes_quoted_header(std::string_view text,
                            const std::vector<std::string_view>& headers) {
  std::size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  if (i >= text.size() || text[i] != '#') return false;
  ++i;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  if (text.substr(i, 7) != "include") return false;
  const std::size_t open = text.find('"', i);
  if (open == std::string_view::npos) return false;
  const std::size_t close = text.find('"', open + 1);
  if (close == std::string_view::npos) return false;
  const std::string_view header = text.substr(open + 1, close - open - 1);
  return std::find(headers.begin(), headers.end(), header) != headers.end();
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Scans raw (unstripped) text for `arclint: allow(rule)` /
/// `arclint: allow-file(rule)` directives.
bool has_directive(std::string_view raw, std::string_view kind,
                   std::string_view rule) {
  std::size_t pos = 0;
  while ((pos = raw.find("arclint:", pos)) != std::string_view::npos) {
    std::size_t i = pos + 8;
    while (i < raw.size() && raw[i] == ' ') ++i;
    if (starts_with(raw.substr(i), kind)) {
      i += kind.size();
      if (i < raw.size() && raw[i] == '(') {
        const std::size_t close = raw.find(')', i);
        if (close != std::string_view::npos &&
            raw.substr(i + 1, close - i - 1) == rule) {
          return true;
        }
      }
    }
    pos += 8;
  }
  return false;
}

struct LineCtx {
  std::string_view stripped;  ///< matching surface
  std::string_view raw;       ///< directive surface
};

}  // namespace

std::string strip_comments_and_strings(std::string_view source) {
  std::string out;
  out.reserve(source.size());
  enum class State {
    Code,
    LineComment,
    BlockComment,
    String,
    Char,
    RawString
  };
  State state = State::Code;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
      case State::Code:
        if (c == '/' && next == '/') {
          state = State::LineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::BlockComment;
          out += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !is_ident(source[i - 1]))) {
          // R"delim( — capture the delimiter.
          std::size_t j = i + 2;
          raw_delim.clear();
          while (j < source.size() && source[j] != '(' &&
                 raw_delim.size() < 16) {
            raw_delim += source[j++];
          }
          state = State::RawString;
          out += ' ';
          // Emit placeholders up to and including '(' below via fallthrough
          // of the loop: simplest is to jump i to j and let RawString eat.
          for (std::size_t k = i + 1; k <= j && k < source.size(); ++k) {
            out += source[k] == '\n' ? '\n' : ' ';
          }
          i = j;
        } else if (c == '"') {
          state = State::String;
          out += ' ';
        } else if (c == '\'') {
          state = State::Char;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::LineComment:
        if (c == '\n') {
          state = State::Code;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::BlockComment:
        if (c == '*' && next == '/') {
          state = State::Code;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::String:
        if (c == '\\' && i + 1 < source.size()) {
          out += "  ";
          ++i;
        } else if (c == '"') {
          state = State::Code;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::Char:
        if (c == '\\' && i + 1 < source.size()) {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::Code;
          out += ' ';
        } else {
          out += ' ';
        }
        break;
      case State::RawString: {
        // Look for )delim"
        if (c == ')' &&
            source.substr(i + 1, raw_delim.size()) == raw_delim &&
            i + 1 + raw_delim.size() < source.size() &&
            source[i + 1 + raw_delim.size()] == '"') {
          for (std::size_t k = 0; k < raw_delim.size() + 2; ++k) out += ' ';
          i += raw_delim.size() + 1;
          state = State::Code;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      }
    }
  }
  return out;
}

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> ids = {
      "unordered-container", "wall-clock",   "raw-mutex",
      "hotpath-std-function", "entropy",     "tools-parity",
      "durability-io",       "shard-isolation", "one-loop",
      "one-memo"};
  return ids;
}

std::vector<Finding> check_tools_parity(
    const std::vector<std::string>& tool_names, std::string_view cmake_text,
    std::string_view ci_text) {
  std::vector<Finding> findings;
  for (const std::string& tool : tool_names) {
    // ctest registration: some add_test(...) argument list names the tool
    // (as the command or an argument — either way ctest runs it).
    bool has_test = false;
    std::size_t pos = 0;
    while ((pos = cmake_text.find("add_test", pos)) !=
           std::string_view::npos) {
      const std::size_t open = cmake_text.find('(', pos);
      if (open == std::string_view::npos) break;
      const std::size_t close = cmake_text.find(')', open);
      if (close == std::string_view::npos) break;
      if (contains_word(cmake_text.substr(open, close - open), tool)) {
        has_test = true;
        break;
      }
      pos = close;
    }
    if (!has_test) {
      findings.push_back(Finding{
          "CMakeLists.txt", 0, "tools-parity",
          "tool '" + tool +
              "' is not registered with ctest; add an add_test gate so the "
              "suite runs what CI runs"});
    }
    if (!contains_word(ci_text, tool)) {
      findings.push_back(Finding{
          ".github/workflows/ci.yml", 0, "tools-parity",
          "tool '" + tool +
              "' has no CI step; a tool the workflow never runs is a gate "
              "nobody trusts"});
    }
  }
  return findings;
}

std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view source) {
  std::vector<Finding> findings;

  const bool in_src = starts_with(path, "src/");
  const bool in_sim_or_repair =
      starts_with(path, "src/sim/") || starts_with(path, "src/repair/");
  const bool is_annotations = path == "src/util/annotations.hpp";
  // The single allow-listed randomness source tree-wide: every other file
  // must draw through arcadia::Rng so runs stay a pure function of
  // (config, seed) — including fault injection (the fault plane forks its
  // streams from here too).
  const bool is_rng = path == "src/util/deterministic_rng.hpp";
  // The single allow-listed file-I/O seam under src/: durability/io owns
  // every descriptor so crash atomicity (tmp + fsync + rename), torn-tail
  // handling, and the abandon() kill -9 semantics live in one place.
  const bool is_durability_io = starts_with(path, "src/durability/io.");
  const bool hotpath_marked =
      source.find("arclint: hotpath") != std::string_view::npos;
  // Shard-kernel files declare themselves with `// arclint: shard`; the
  // marker never collides with allow directives (those spell
  // "arclint: allow(...)").
  const bool shard_marked =
      starts_with(path, "src/sim/") &&
      source.find("arclint: shard") != std::string_view::npos;
  // The single allow-listed detection loop: only the FleetManager folds
  // gauge reports and liveness marks into a model shard.
  const bool is_fleet_manager = path == "src/core/fleet_manager.cpp";
  // The single allow-listed verdict cache: the model keeps the revision
  // clocks, and only the constraint checker's memo is keyed on them.
  const bool is_memo_home = starts_with(path, "src/model/") ||
                            path == "src/repair/constraint.cpp";

  struct Rule {
    bool applies;
    std::string_view id;
  };
  const Rule rules[] = {
      {in_src, "unordered-container"},
      {in_sim_or_repair, "wall-clock"},
      {in_src && !is_annotations, "raw-mutex"},
      {hotpath_marked, "hotpath-std-function"},
      {in_src && !is_rng, "entropy"},
      {in_src && !is_durability_io, "durability-io"},
      {shard_marked, "shard-isolation"},
      {in_src && !is_fleet_manager, "one-loop"},
      {in_src && !is_memo_home, "one-memo"},
  };
  constexpr std::size_t kNumRules = sizeof(rules) / sizeof(rules[0]);
  bool any = false;
  for (const Rule& r : rules) any = any || r.applies;
  if (!any) return findings;

  // File-level exemptions come off the raw text.
  bool file_allowed[kNumRules] = {};
  for (std::size_t r = 0; r < kNumRules; ++r) {
    file_allowed[r] = has_directive(source, "allow-file", rules[r].id);
  }

  const std::string stripped = strip_comments_and_strings(source);

  // Walk both texts line by line in lockstep (stripping preserves lines).
  std::size_t line_no = 0;
  std::size_t s_pos = 0, r_pos = 0;
  while (s_pos <= stripped.size() && r_pos <= source.size()) {
    ++line_no;
    const std::size_t s_end = std::min(stripped.find('\n', s_pos),
                                       stripped.size());
    const std::size_t r_end =
        std::min(source.find('\n', r_pos), source.size());
    const std::string_view line =
        std::string_view(stripped).substr(s_pos, s_end - s_pos);
    const std::string_view raw_line = source.substr(r_pos, r_end - r_pos);

    auto check = [&](std::size_t rule_idx, bool hit,
                     const std::string& message) {
      if (!hit || !rules[rule_idx].applies || file_allowed[rule_idx]) return;
      if (has_directive(raw_line, "allow", rules[rule_idx].id)) return;
      findings.push_back(Finding{std::string(path), line_no,
                                 std::string(rules[rule_idx].id), message});
    };

    // unordered-container
    check(0,
          contains_word(line, "unordered_map") ||
              contains_word(line, "unordered_set") ||
              contains_word(line, "unordered_multimap") ||
              contains_word(line, "unordered_multiset"),
          "hash-ordered container on the simulation/dispatch path; "
          "iteration order feeds event order — use util::SymbolMap, "
          "std::map, or a sorted vector");

    // wall-clock
    {
      // Entropy words moved to the tree-wide "entropy" rule below; this
      // rule keeps the time-source words for sim/ and repair/.
      static constexpr std::string_view kClockWords[] = {
          "steady_clock", "system_clock", "high_resolution_clock",
          "gettimeofday", "clock_gettime", "timespec_get",
          "localtime",    "gmtime",
      };
      bool hit = false;
      for (std::string_view w : kClockWords) {
        if (contains_word(line, w)) {
          hit = true;
          break;
        }
      }
      check(1, hit,
            "wall-clock in simulated code; runs must be a pure function of "
            "(config, seed) — use sim::Simulator::now()");
    }

    // raw-mutex
    {
      static constexpr std::string_view kStdSync[] = {
          "mutex",          "timed_mutex",
          "recursive_mutex", "recursive_timed_mutex",
          "shared_mutex",   "shared_timed_mutex",
          "lock_guard",     "unique_lock",
          "scoped_lock",    "shared_lock",
          "condition_variable", "condition_variable_any",
      };
      bool hit = includes_header(
          line, {"mutex", "shared_mutex", "condition_variable"});
      if (!hit) {
        for (std::string_view w : kStdSync) {
          if (contains_std_word(line, w)) {
            hit = true;
            break;
          }
        }
      }
      check(2, hit,
            "raw std synchronization primitive; lock through the annotated "
            "wrappers in util/annotations.hpp (util::Mutex, util::MutexLock, "
            "util::CondVar) so -Wthread-safety coverage stays total");
    }

    // hotpath-std-function
    check(3, contains_std_word(line, "function"),
          "std::function in a `// arclint: hotpath` file; it heap-allocates "
          "beyond two pointers of captures — use util::SmallFn or a "
          "template parameter");

    // entropy: any randomness source other than util/deterministic_rng.hpp
    {
      static constexpr std::string_view kEntropyWords[] = {
          "random_device", "srand",       "rand",
          "mt19937",       "mt19937_64",  "minstd_rand",
          "default_random_engine",
      };
      bool hit = includes_header(line, {"random"});
      if (!hit) {
        for (std::string_view w : kEntropyWords) {
          if (contains_word(line, w)) {
            hit = true;
            break;
          }
        }
      }
      check(4, hit,
            "ambient randomness source; the only allowed generator is "
            "arcadia::Rng from util/deterministic_rng.hpp (seeded, "
            "forkable) — determinism and fault replay depend on it");
    }

    // durability-io: library code does not open files behind the journal's
    // back.
    {
      // <cstdio> stays legal: stderr logging uses it. Opening a FILE* is
      // what the rule forbids, and the fopen words catch that.
      static constexpr std::string_view kFileIoWords[] = {
          "ofstream", "ifstream", "fstream", "fopen", "freopen",
      };
      bool hit = includes_header(line, {"fstream"});
      if (!hit) {
        for (std::string_view w : kFileIoWords) {
          if (contains_word(line, w)) {
            hit = true;
            break;
          }
        }
      }
      check(5, hit,
            "direct file I/O under src/; route it through durability/io.hpp "
            "(AppendFile, write_file_atomic, read_file) so crash atomicity "
            "and torn-tail recovery stay centralized");
    }

    // shard-isolation: files under src/sim/ marked `// arclint: shard` (the
    // sharded simulation kernel) may not reach into the fleet control plane
    // or the global buses — cross-shard effects must route through the
    // coordinator seam (control-simulator events, the barrier hook) or the
    // window bound breaks.
    {
      bool hit = contains_word(line, "FleetManager") ||
                 contains_word(line, "EventBus") ||
                 contains_word(line, "DurabilityPlane");
      if (!hit) {
        // Quoted includes live in string literals, so scan the raw line.
        hit = includes_quoted_header(
            raw_line, {"core/fleet_manager.hpp", "core/fleet.hpp",
                       "events/bus.hpp", "durability/plane.hpp"});
      }
      check(6, hit,
            "shard-kernel file touches the fleet control plane / global "
            "buses; route cross-shard effects through control-simulator "
            "events or the SimCoordinator barrier hook so the conservative "
            "window bound stays sound");
    }

    // one-loop: a gauge report/lifecycle topic subscription outside the
    // FleetManager is a second detection loop (and a second chance to drift
    // from the first).
    check(7,
          calls_word(line, "topic") &&
              (contains_word(line, "kGaugeReportSym") ||
               contains_word(line, "kGaugeLifecycleSym") ||
               contains_word(line, "kGaugeReport") ||
               contains_word(line, "kGaugeLifecycle")),
          "gauge report/lifecycle subscription outside "
          "core/fleet_manager.cpp; the FleetManager is the one detection "
          "loop — register the model shard with one (a solo Framework runs "
          "a one-shard FleetManager)");

    // one-memo: a revision-clock read outside the model and the checker is
    // a second verdict cache keyed on the clocks.
    check(8,
          calls_word(line, "structure_clock") ||
              calls_word(line, "property_clock"),
          "revision-clock read outside src/model/ and "
          "repair/constraint.cpp; the constraint checker's memo is the one "
          "verdict cache — ask the checker instead of caching its answer");

    if (s_end >= stripped.size() || r_end >= source.size()) break;
    s_pos = s_end + 1;
    r_pos = r_end + 1;
  }
  return findings;
}

}  // namespace arclint
