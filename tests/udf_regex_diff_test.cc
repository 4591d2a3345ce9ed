// Seeded differential test of the regex shortcuts: Matches (required-literal
// prefilter plus '^' anchoring) must agree with MatchesPlain, the plain
// unanchored NFA simulation, on random patterns over the whole supported
// syntax and random texts with the patterns' literals planted in them.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "udf/regex.h"

namespace gigascope::udf {
namespace {

/// Random patterns over a small alphabet, so texts hit them often.
class PatternGenerator {
 public:
  explicit PatternGenerator(Rng* rng) : rng_(rng) {}

  std::string Alt(int depth) {
    std::string out = Concat(depth);
    while (rng_->NextBool(0.2)) out += "|" + Concat(depth);
    return out;
  }

 private:
  std::string Concat(int depth) {
    std::string out;
    const uint64_t pieces = rng_->NextBelow(5);
    for (uint64_t i = 0; i < pieces; ++i) out += Piece(depth);
    return out;
  }

  std::string Piece(int depth) {
    std::string atom = Atom(depth);
    if (atom == "^" || atom == "$") return atom;
    switch (rng_->NextBelow(12)) {
      case 0: return atom + "*";
      case 1: return atom + "+";
      case 2: return atom + "?";
      case 3: return atom + "{" + Count() + "}";
      case 4: {
        const uint64_t m = rng_->NextBelow(3);
        return atom + "{" + std::to_string(m) + "," +
               std::to_string(m + rng_->NextBelow(3)) + "}";
      }
      case 5: return atom + "{" + Count() + ",}";
      default: return atom;
    }
  }

  std::string Count() { return std::to_string(rng_->NextBelow(4)); }

  std::string Atom(int depth) {
    static const char* const kClasses[] = {"[ab]", "[^a]", "[a-c]", "[^\\n]",
                                           "[H]", "\\d", "\\w", "\\s",
                                           "\\.", "\\n", "[/1]"};
    const uint64_t pick = rng_->NextBelow(20);
    if (pick < 10) return std::string(1, "abcHTP/1 ."[rng_->NextBelow(10)]);
    if (pick < 13) return kClasses[rng_->NextBelow(std::size(kClasses))];
    if (pick < 15) return "^";
    if (pick < 16) return "$";
    if (depth > 0) return "(" + Alt(depth - 1) + ")";
    return "a";
  }

  Rng* rng_;
};

std::string RandomText(Rng* rng, const std::string& pattern,
                       const std::string& literal) {
  std::string text;
  const uint64_t len = rng->NextBelow(40);
  for (uint64_t i = 0; i < len; ++i) {
    text += "abcHTP/1 .\n0x"[rng->NextBelow(13)];
  }
  // Plant the required literal, or a slice of the pattern text.
  if (!literal.empty() && rng->NextBool(0.5)) {
    text.insert(rng->NextBelow(text.size() + 1), literal);
  }
  if (!pattern.empty() && rng->NextBool(0.3)) {
    const size_t from = rng->NextBelow(pattern.size());
    text.insert(rng->NextBelow(text.size() + 1),
                pattern.substr(from, 1 + rng->NextBelow(6)));
  }
  return text;
}

TEST(RegexDiffTest, ShortcutsAgreeWithPlainSimulation) {
  Rng rng(2003);
  PatternGenerator generator(&rng);
  size_t compiled = 0, with_literal = 0, anchored = 0, matches = 0;
  size_t rejected_by_literal = 0;
  for (int p = 0; p < 3000; ++p) {
    const std::string pattern = generator.Alt(2);
    auto regex = Regex::Compile(pattern);
    if (!regex.ok()) continue;  // e.g. a repeated '{' guard
    ++compiled;
    const std::string& literal = regex->required_literal();
    if (!literal.empty()) ++with_literal;
    if (!pattern.empty() && pattern[0] == '^') ++anchored;
    for (int t = 0; t < 25; ++t) {
      const std::string text = RandomText(&rng, pattern, literal);
      const bool plain = regex->MatchesPlain(text);
      ASSERT_EQ(regex->Matches(text), plain)
          << "pattern '" << pattern << "' literal '" << literal
          << "' text '" << text << "'";
      // The literal is required: every matching text contains it.
      if (plain) {
        ++matches;
        EXPECT_NE(text.find(literal), std::string::npos)
            << "pattern '" << pattern << "' literal '" << literal << "'";
      } else if (text.find(literal) == std::string::npos) {
        ++rejected_by_literal;
      }
    }
  }
  // The corpus exercises every shortcut, and both outcomes.
  EXPECT_GT(compiled, 2500u);
  EXPECT_GT(with_literal, 500u);
  EXPECT_GT(anchored, 100u);
  EXPECT_GT(matches, 10000u);
  EXPECT_GT(rejected_by_literal, 1000u);
}

TEST(RegexDiffTest, RequiredLiteralFollowsTheParse) {
  auto literal = [](std::string_view pattern) {
    auto regex = Regex::Compile(pattern);
    EXPECT_TRUE(regex.ok()) << pattern;
    return regex.ok() ? regex->required_literal() : std::string("?");
  };
  EXPECT_EQ(literal("^[^\\n]*HTTP/1.*"), "HTTP/1");
  EXPECT_EQ(literal("abc"), "abc");
  EXPECT_EQ(literal("cat|dog"), "");             // alternation
  EXPECT_EQ(literal("x(a|b)yz"), "yz");          // longest surviving run
  EXPECT_EQ(literal("ab*cd"), "cd");             // '*' is optional
  EXPECT_EQ(literal("ab?c"), "a");               // '?' is optional
  EXPECT_EQ(literal("ab{0,2}c"), "a");           // {0,n} is optional
  EXPECT_EQ(literal("ab+c"), "ab");              // 'b' at least once
  EXPECT_EQ(literal("ab{3}c"), "abbbc");         // exact count unrolls
  EXPECT_EQ(literal("xab{2,4}c"), "xabb");       // then the optional tail
  EXPECT_EQ(literal("(ab){2}"), "abab");
  EXPECT_EQ(literal("a.b"), "a");                // '.' ends a run
  EXPECT_EQ(literal("ab[cd]ef"), "ab");          // classes end a run
  EXPECT_EQ(literal("ab[c]ef"), "abcef");        // a one-byte class is a char
  EXPECT_EQ(literal("\\.com$"), ".com");
  EXPECT_EQ(literal("^$"), "");
  // Long literals are capped at 64 bytes; a prefix of the run is still
  // required.
  std::string capped;
  for (int i = 0; i < 16; ++i) capped += "abcd";
  EXPECT_EQ(literal("(abcd){100}"), capped);
}

}  // namespace
}  // namespace gigascope::udf
