#include "udf/regex.h"

#include <algorithm>
#include <cstring>
#include <initializer_list>

namespace gigascope::udf {

namespace {

/// What the parse knows about the strings a fragment matches, for the
/// literal prefilter: every match starts with `prefix`, ends with `suffix`
/// and contains `required`; when `exact`, every match is that one string
/// (and all three equal it). The default — nothing known — is always sound.
struct Literals {
  bool exact = false;
  std::string prefix;
  std::string suffix;
  std::string required;

  static Literals Exact(const std::string& s) { return {true, s, s, s}; }
};

const std::string& Longest(std::initializer_list<const std::string*> all) {
  const std::string* best = *all.begin();
  for (const std::string* s : all) {
    if (s->size() > best->size()) best = s;
  }
  return *best;
}

/// Caps every literal at kMaxLiteral bytes, so bounded repeats of groups
/// cannot grow them quadratically. Still sound: a prefix of a prefix, a
/// suffix of a suffix and a substring of a required literal hold for every
/// match too.
constexpr size_t kMaxLiteral = 64;

Literals Bounded(Literals l) {
  if (l.prefix.size() <= kMaxLiteral && l.suffix.size() <= kMaxLiteral &&
      l.required.size() <= kMaxLiteral) {
    return l;
  }
  l.exact = false;
  l.prefix.resize(std::min(l.prefix.size(), kMaxLiteral));
  if (l.suffix.size() > kMaxLiteral) {
    l.suffix.erase(0, l.suffix.size() - kMaxLiteral);
  }
  l.required.resize(std::min(l.required.size(), kMaxLiteral));
  return l;
}

/// Literals of `a` followed by `b`: a's suffix and b's prefix are adjacent
/// in every match, so their concatenation is required too.
Literals ConcatLiterals(const Literals& a, const Literals& b) {
  if (a.exact && b.exact) return Bounded(Literals::Exact(a.prefix + b.prefix));
  Literals out;
  out.prefix = a.exact ? a.prefix + b.prefix : a.prefix;
  out.suffix = b.exact ? a.suffix + b.suffix : b.suffix;
  const std::string joint = a.suffix + b.prefix;
  out.required = Longest(
      {&a.required, &b.required, &joint, &out.prefix, &out.suffix});
  return Bounded(std::move(out));
}

/// Literals of `a` repeated one or more times.
Literals PlusLiterals(Literals a) {
  a.exact = false;
  return a;
}

/// NFA fragment under construction: a start state plus the dangling "out"
/// slots that the next fragment will be patched into. Each dangling slot is
/// (state index, which-out): 0 = next, 1 = next2.
struct Fragment {
  int start;
  std::vector<std::pair<int, int>> dangling;
  Literals literals;
};

}  // namespace

/// Recursive-descent pattern parser that emits NFA states directly
/// (Thompson's construction).
class RegexCompiler {
 public:
  explicit RegexCompiler(std::string_view pattern) : pattern_(pattern) {}

  Result<Regex> Run() {
    GS_ASSIGN_OR_RETURN(Fragment frag, ParseAlt());
    if (!AtEnd()) {
      return Status::ParseError("regex: unexpected ')' at position " +
                                std::to_string(pos_));
    }
    int match = AddState(Regex::State::Kind::kMatch);
    Patch(frag.dangling, match);
    Regex regex;
    regex.pattern_ = std::string(pattern_);
    regex.states_ = std::move(states_);
    regex.start_ = frag.start;
    regex.required_ = std::move(frag.literals.required);
    regex.anchored_ = regex.states_[frag.start].kind ==
                      Regex::State::Kind::kAssertStart;
    return regex;
  }

 private:
  bool AtEnd() const { return pos_ >= pattern_.size(); }
  char Peek() const { return AtEnd() ? '\0' : pattern_[pos_]; }
  char Advance() { return pattern_[pos_++]; }

  int AddState(Regex::State::Kind kind) {
    Regex::State state;
    state.kind = kind;
    states_.push_back(std::move(state));
    return static_cast<int>(states_.size() - 1);
  }

  void Patch(const std::vector<std::pair<int, int>>& dangling, int target) {
    for (auto [state, which] : dangling) {
      if (which == 0) {
        states_[state].next = target;
      } else {
        states_[state].next2 = target;
      }
    }
  }

  // alt := concat ('|' concat)*
  Result<Fragment> ParseAlt() {
    GS_ASSIGN_OR_RETURN(Fragment left, ParseConcat());
    while (Peek() == '|') {
      Advance();
      GS_ASSIGN_OR_RETURN(Fragment right, ParseConcat());
      int split = AddState(Regex::State::Kind::kSplit);
      states_[split].next = left.start;
      states_[split].next2 = right.start;
      Fragment merged;  // alternation: no literal is known
      merged.start = split;
      merged.dangling = left.dangling;
      merged.dangling.insert(merged.dangling.end(), right.dangling.begin(),
                             right.dangling.end());
      left = std::move(merged);
    }
    return left;
  }

  // concat := repeat*   (empty concat = epsilon)
  Result<Fragment> ParseConcat() {
    Fragment result;
    bool have_any = false;
    while (!AtEnd() && Peek() != '|' && Peek() != ')') {
      GS_ASSIGN_OR_RETURN(Fragment next, ParseRepeat());
      if (!have_any) {
        result = std::move(next);
        have_any = true;
      } else {
        result = Concat(std::move(result), std::move(next));
      }
    }
    if (!have_any) return Epsilon();
    return result;
  }

  /// Matches the empty string: a split whose both arms dangle to the same
  /// target.
  Fragment Epsilon() {
    int split = AddState(Regex::State::Kind::kSplit);
    Fragment epsilon;
    epsilon.start = split;
    epsilon.dangling = {{split, 0}, {split, 1}};
    epsilon.literals = Literals::Exact("");
    return epsilon;
  }

  /// Concatenates two fragments (a then b).
  Fragment Concat(Fragment a, Fragment b) {
    Patch(a.dangling, b.start);
    a.dangling = std::move(b.dangling);
    a.literals = ConcatLiterals(a.literals, b.literals);
    return a;
  }

  /// A one-byte-class state; a single-byte class is a literal character.
  Fragment ClassFragment(const std::bitset<256>& cls) {
    int state = AddState(Regex::State::Kind::kClass);
    states_[state].cls = cls;
    Fragment frag;
    frag.start = state;
    frag.dangling = {{state, 0}};
    if (cls.count() == 1) {
      for (size_t b = 0; b < cls.size(); ++b) {
        if (cls.test(b)) {
          frag.literals = Literals::Exact(std::string(1, static_cast<char>(b)));
        }
      }
    }
    return frag;
  }

  /// A zero-width assertion state ('^' or '$'): matches the empty string.
  Fragment AssertFragment(Regex::State::Kind kind) {
    int state = AddState(kind);
    Fragment frag;
    frag.start = state;
    frag.dangling = {{state, 0}};
    frag.literals = Literals::Exact("");
    return frag;
  }

  /// Re-emits a fresh copy of the atom spanning [begin, end) by re-parsing
  /// that slice of the pattern (Thompson fragments cannot be cloned in
  /// place, but the source text can be compiled again).
  Result<Fragment> ReparseAtom(size_t begin, size_t end) {
    size_t saved = pos_;
    pos_ = begin;
    Result<Fragment> copy = ParseAtom();
    if (copy.ok() && pos_ != end) {
      return Status::ParseError("regex: internal atom re-parse mismatch");
    }
    pos_ = saved;
    return copy;
  }

  /// Builds atom{m,n} (n == SIZE_MAX for unbounded): m required copies,
  /// then either a star (unbounded) or a chain of nested optionals.
  Result<Fragment> BuildCounted(Fragment first, size_t begin, size_t end,
                                size_t m, size_t n) {
    constexpr size_t kMaxCount = 1000;
    if (m > kMaxCount || (n != SIZE_MAX && n > kMaxCount)) {
      return Status::ParseError("regex: repetition count too large");
    }
    if (n != SIZE_MAX && n < m) {
      return Status::ParseError("regex: repetition range {m,n} with n < m");
    }

    // Required part: m copies (the first already parsed).
    std::optional<Fragment> required;
    if (m >= 1) required = first;
    for (size_t i = 1; i < m; ++i) {
      GS_ASSIGN_OR_RETURN(Fragment copy, ReparseAtom(begin, end));
      required = Concat(std::move(*required), std::move(copy));
    }

    // Optional tail.
    std::optional<Fragment> tail;
    if (n == SIZE_MAX) {
      // atom* over a fresh copy (or over `first` when m == 0).
      Fragment copy = first;
      if (m >= 1) {
        GS_ASSIGN_OR_RETURN(copy, ReparseAtom(begin, end));
      }
      int split = AddState(Regex::State::Kind::kSplit);
      states_[split].next = copy.start;
      Patch(copy.dangling, split);
      Fragment star;  // optional: no literal is known
      star.start = split;
      star.dangling = {{split, 1}};
      tail = star;
    } else {
      // Nested optionals, built right-to-left: a{2,4} = aa(a(a)?)?.
      for (size_t i = 0; i < n - m; ++i) {
        // Reuse `first` only for the innermost copy when m == 0 left it
        // unconsumed; every other copy is re-emitted from the source text.
        Fragment copy = first;
        if (m >= 1 || tail.has_value() || i > 0) {
          GS_ASSIGN_OR_RETURN(copy, ReparseAtom(begin, end));
        }
        if (tail.has_value()) {
          copy = Concat(std::move(copy), std::move(*tail));
        }
        int split = AddState(Regex::State::Kind::kSplit);
        states_[split].next = copy.start;
        Fragment optional;  // no literal is known
        optional.start = split;
        optional.dangling = std::move(copy.dangling);
        optional.dangling.push_back({split, 1});
        tail = optional;
      }
    }

    if (required.has_value() && tail.has_value()) {
      return Concat(std::move(*required), std::move(*tail));
    }
    if (required.has_value()) return *required;
    if (tail.has_value()) return *tail;
    return Epsilon();  // {0,0}
  }

  // repeat := atom ('*' | '+' | '?' | '{m}' | '{m,}' | '{m,n}')*
  Result<Fragment> ParseRepeat() {
    size_t atom_begin = pos_;
    GS_ASSIGN_OR_RETURN(Fragment frag, ParseAtom());
    size_t atom_end = pos_;
    while (!AtEnd()) {
      char c = Peek();
      if (c == '*') {
        Advance();
        int split = AddState(Regex::State::Kind::kSplit);
        states_[split].next = frag.start;
        Patch(frag.dangling, split);
        frag.start = split;
        frag.dangling = {{split, 1}};
        frag.literals = Literals();
      } else if (c == '+') {
        Advance();
        int split = AddState(Regex::State::Kind::kSplit);
        states_[split].next = frag.start;
        Patch(frag.dangling, split);
        frag.dangling = {{split, 1}};
        // start unchanged: must pass through the atom at least once
        frag.literals = PlusLiterals(std::move(frag.literals));
      } else if (c == '?') {
        Advance();
        int split = AddState(Regex::State::Kind::kSplit);
        states_[split].next = frag.start;
        Fragment opt;  // optional: no literal is known
        opt.start = split;
        opt.dangling = std::move(frag.dangling);
        opt.dangling.push_back({split, 1});
        frag = std::move(opt);
      } else if (c == '{' && pos_ + 1 < pattern_.size() &&
                 pattern_[pos_ + 1] >= '0' && pattern_[pos_ + 1] <= '9') {
        Advance();  // '{'
        size_t m = 0;
        while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
          m = m * 10 + static_cast<size_t>(Advance() - '0');
          if (m > 100000) return Status::ParseError("regex: count overflow");
        }
        size_t n = m;
        if (Peek() == ',') {
          Advance();
          if (Peek() == '}') {
            n = SIZE_MAX;  // {m,}
          } else {
            n = 0;
            while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
              n = n * 10 + static_cast<size_t>(Advance() - '0');
              if (n > 100000) {
                return Status::ParseError("regex: count overflow");
              }
            }
          }
        }
        if (Peek() != '}') {
          return Status::ParseError("regex: expected '}' in repetition");
        }
        Advance();
        GS_ASSIGN_OR_RETURN(
            frag, BuildCounted(std::move(frag), atom_begin, atom_end, m, n));
        // Further quantifiers apply to the counted construct, whose source
        // span can no longer be re-parsed; only * + ? are meaningful next.
        atom_begin = atom_end;  // make a second '{' an internal error guard
      } else {
        break;
      }
    }
    return frag;
  }

  Result<Fragment> ParseAtom() {
    if (AtEnd()) return Status::ParseError("regex: pattern ended unexpectedly");
    char c = Advance();
    switch (c) {
      case '(': {
        GS_ASSIGN_OR_RETURN(Fragment inner, ParseAlt());
        if (Peek() != ')') {
          return Status::ParseError("regex: missing ')'");
        }
        Advance();
        return inner;
      }
      case '[':
        return ParseClass();
      case '.': {
        std::bitset<256> cls;
        cls.set();
        cls.reset('\n');
        return ClassFragment(cls);
      }
      case '^':
        return AssertFragment(Regex::State::Kind::kAssertStart);
      case '$':
        return AssertFragment(Regex::State::Kind::kAssertEnd);
      case '*':
      case '+':
      case '?':
        return Status::ParseError(
            std::string("regex: dangling repetition '") + c + "'");
      case '\\': {
        std::bitset<256> cls;
        GS_RETURN_IF_ERROR(ParseEscape(&cls));
        return ClassFragment(cls);
      }
      default: {
        std::bitset<256> cls;
        cls.set(static_cast<unsigned char>(c));
        return ClassFragment(cls);
      }
    }
  }

  Status ParseEscape(std::bitset<256>* cls) {
    if (AtEnd()) return Status::ParseError("regex: trailing backslash");
    char c = Advance();
    switch (c) {
      case 'n': cls->set('\n'); return Status::Ok();
      case 't': cls->set('\t'); return Status::Ok();
      case 'r': cls->set('\r'); return Status::Ok();
      case '0': cls->set(0); return Status::Ok();
      case 'd':
        for (char d = '0'; d <= '9'; ++d) cls->set(static_cast<unsigned char>(d));
        return Status::Ok();
      case 'D':
        cls->set();
        for (char d = '0'; d <= '9'; ++d)
          cls->reset(static_cast<unsigned char>(d));
        return Status::Ok();
      case 'w':
        for (char d = '0'; d <= '9'; ++d) cls->set(static_cast<unsigned char>(d));
        for (char d = 'a'; d <= 'z'; ++d) cls->set(static_cast<unsigned char>(d));
        for (char d = 'A'; d <= 'Z'; ++d) cls->set(static_cast<unsigned char>(d));
        cls->set('_');
        return Status::Ok();
      case 'W': {
        std::bitset<256> word;
        for (char d = '0'; d <= '9'; ++d) word.set(static_cast<unsigned char>(d));
        for (char d = 'a'; d <= 'z'; ++d) word.set(static_cast<unsigned char>(d));
        for (char d = 'A'; d <= 'Z'; ++d) word.set(static_cast<unsigned char>(d));
        word.set('_');
        *cls = ~word;
        return Status::Ok();
      }
      case 's':
        cls->set(' ');
        cls->set('\t');
        cls->set('\n');
        cls->set('\r');
        cls->set('\f');
        cls->set('\v');
        return Status::Ok();
      case 'S': {
        std::bitset<256> space;
        space.set(' ');
        space.set('\t');
        space.set('\n');
        space.set('\r');
        space.set('\f');
        space.set('\v');
        *cls = ~space;
        return Status::Ok();
      }
      default:
        // Escaped metacharacter or literal.
        cls->set(static_cast<unsigned char>(c));
        return Status::Ok();
    }
  }

  Result<Fragment> ParseClass() {
    std::bitset<256> cls;
    bool negate = false;
    if (Peek() == '^') {
      negate = true;
      Advance();
    }
    bool first = true;
    while (true) {
      if (AtEnd()) return Status::ParseError("regex: unterminated '['");
      char c = Advance();
      if (c == ']' && !first) break;
      first = false;
      unsigned char lo;
      if (c == '\\') {
        std::bitset<256> escaped;
        GS_RETURN_IF_ERROR(ParseEscape(&escaped));
        cls |= escaped;
        continue;
      }
      lo = static_cast<unsigned char>(c);
      if (Peek() == '-' && pos_ + 1 < pattern_.size() &&
          pattern_[pos_ + 1] != ']') {
        Advance();  // '-'
        unsigned char hi = static_cast<unsigned char>(Advance());
        if (hi < lo) return Status::ParseError("regex: inverted range");
        for (int b = lo; b <= hi; ++b) cls.set(static_cast<size_t>(b));
      } else {
        cls.set(lo);
      }
    }
    if (negate) cls = ~cls;
    return ClassFragment(cls);
  }

  std::string_view pattern_;
  size_t pos_ = 0;
  std::vector<Regex::State> states_;
};

Result<Regex> Regex::Compile(std::string_view pattern) {
  RegexCompiler compiler(pattern);
  return compiler.Run();
}

void Regex::AddState(int state, size_t pos, size_t len, std::vector<int>* list,
                     std::vector<uint32_t>* seen, uint32_t gen) const {
  if (state < 0) return;
  if ((*seen)[state] == gen) return;
  (*seen)[state] = gen;
  const State& s = states_[state];
  switch (s.kind) {
    case State::Kind::kSplit:
      AddState(s.next, pos, len, list, seen, gen);
      AddState(s.next2, pos, len, list, seen, gen);
      return;
    case State::Kind::kAssertStart:
      if (pos == 0) AddState(s.next, pos, len, list, seen, gen);
      return;
    case State::Kind::kAssertEnd:
      if (pos == len) AddState(s.next, pos, len, list, seen, gen);
      return;
    case State::Kind::kClass:
    case State::Kind::kMatch:
      list->push_back(state);
      return;
  }
}

bool Regex::Run(std::string_view text, bool anchored_start,
                bool require_full) const {
  std::vector<int> current, next, stepped;
  std::vector<uint32_t> seen(states_.size(), 0);
  uint32_t gen = 0;
  const size_t len = text.size();

  for (size_t pos = 0; pos <= len; ++pos) {
    ++gen;
    // Re-seed the start state at every position for unanchored search.
    // Re-seeding uses the same generation as this step's propagation so
    // duplicate states collapse. Swapping keeps every frontier's capacity.
    std::swap(stepped, next);
    next.clear();
    current.clear();
    for (int state : stepped) {
      AddState(state, pos, len, &current, &seen, gen);
    }
    if (!anchored_start || pos == 0) {
      AddState(start_, pos, len, &current, &seen, gen);
    }
    for (int state : current) {
      const State& s = states_[state];
      if (s.kind == State::Kind::kMatch) {
        if (!require_full || pos == len) return true;
      } else if (s.kind == State::Kind::kClass && pos < len &&
                 s.cls.test(static_cast<unsigned char>(text[pos]))) {
        next.push_back(s.next);
      }
    }
    // Anchored matching cannot re-seed, so an empty frontier is terminal.
    if (anchored_start && next.empty()) return false;
  }
  return false;
}

bool Regex::Matches(std::string_view text) const {
  if (!required_.empty() &&
      memmem(text.data(), text.size(), required_.data(), required_.size()) ==
          nullptr) {
    return false;
  }
  return Run(text, /*anchored_start=*/anchored_, /*require_full=*/false);
}

bool Regex::MatchesPlain(std::string_view text) const {
  return Run(text, /*anchored_start=*/false, /*require_full=*/false);
}

bool Regex::FullMatch(std::string_view text) const {
  return Run(text, /*anchored_start=*/true, /*require_full=*/true);
}

}  // namespace gigascope::udf
