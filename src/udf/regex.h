#ifndef GIGASCOPE_UDF_REGEX_H_
#define GIGASCOPE_UDF_REGEX_H_

#include <bitset>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace gigascope::udf {

/// From-scratch regular-expression engine (Thompson NFA / Pike VM).
///
/// This is the expensive pass-by-handle UDF of the paper's §4 experiment
/// (pattern ^[^\n]*HTTP/1.*). The pattern is compiled once, at query
/// instantiation, into an NFA; matching simulates the NFA in O(states ×
/// text) with no backtracking, so hostile payloads cannot blow up matching
/// time — a property a network monitor needs.
///
/// Supported syntax: literals, '.', '|', '*', '+', '?', '(...)' grouping,
/// character classes [abc], [a-z], [^...], anchors '^' and '$', and escapes
/// \n \t \r \d \D \w \W \s \S and escaped metacharacters.
class Regex {
 public:
  /// Compiles a pattern; fails with ParseError on malformed syntax.
  static Result<Regex> Compile(std::string_view pattern);

  /// Unanchored search: does any substring of `text` match? A leading '^'
  /// or trailing '$' in the pattern constrains as usual. Texts that lack
  /// the pattern's required literal are rejected by one memmem before the
  /// NFA runs, and a pattern that starts with '^' simulates from position
  /// 0 only, stopping as soon as no thread is alive.
  bool Matches(std::string_view text) const;

  /// Matches without the literal prefilter or the '^' shortcut: the plain
  /// unanchored simulation, kept as the reference the shortcuts are
  /// checked against.
  bool MatchesPlain(std::string_view text) const;

  /// Anchored match of the entire text.
  bool FullMatch(std::string_view text) const;

  /// Number of NFA states (size/cost introspection for the planner).
  size_t num_states() const { return states_.size(); }

  const std::string& pattern() const { return pattern_; }

  /// A literal every match contains (empty when none is known), derived
  /// from the parse: adjacent single characters concatenate; alternation,
  /// optional pieces ('*', '?', {0,n}), multi-byte classes and '.' break
  /// the run; x{m,n} counts as m copies of x followed by an optional part.
  const std::string& required_literal() const { return required_; }

 private:
  struct State {
    enum class Kind : uint8_t {
      kClass,        // consume one byte in `cls`, go to next
      kSplit,        // epsilon to next and next2
      kAssertStart,  // epsilon to next iff at text start
      kAssertEnd,    // epsilon to next iff at text end
      kMatch,        // accept
    };
    Kind kind = Kind::kMatch;
    std::bitset<256> cls;
    int next = -1;
    int next2 = -1;
  };

  Regex() = default;

  bool Run(std::string_view text, bool anchored_start,
           bool require_full) const;

  void AddState(int state, size_t pos, size_t len,
                std::vector<int>* list, std::vector<uint32_t>* seen,
                uint32_t gen) const;

  std::string pattern_;
  std::vector<State> states_;
  int start_ = -1;
  std::string required_;
  /// The start state is '^': no match can begin past position 0.
  bool anchored_ = false;

  friend class RegexCompiler;
};

}  // namespace gigascope::udf

#endif  // GIGASCOPE_UDF_REGEX_H_
