// Rule: rng-discipline
//
// All randomness flows through common::StreamRng (counter-based
// Philox4x32-10, keyed by seed/stream/purpose), so a draw in one component
// can never shift another's. Two things fork that discipline:
//   * raw standard-library engines and distributions: not counter-based,
//     not stream-keyed, and their distributions are implementation-defined
//     (libstdc++ vs libc++ produce different sequences), which would make
//     "golden" numbers toolchain-dependent;
//   * the sequential xoshiro engine common::Rng, which src/common/rng.hpp
//     keeps only for the live benchmark: a second engine is a second way to
//     draw, and its draws shift with every earlier draw.
//
// Flagged everywhere except the sanctioned home, src/common/rng.{hpp,cpp}.
// The identifier Rng is flagged; StreamRng, RngOps, comments and strings
// are not.

#include "updp2p_lint/rule.hpp"
#include "updp2p_lint/token_match.hpp"

namespace updp2p::lint {
namespace {

bool is_rng_home(std::string_view path) {
  return path == "src/common/rng.hpp" || path == "src/common/rng.cpp";
}

bool is_banned_engine(std::string_view name) {
  static constexpr std::string_view kEngines[] = {
      "mt19937",      "mt19937_64",    "minstd_rand", "minstd_rand0",
      "ranlux24",     "ranlux48",      "ranlux24_base", "ranlux48_base",
      "knuth_b",      "default_random_engine",
  };
  for (const std::string_view engine : kEngines) {
    if (name == engine) return true;
  }
  return false;
}

bool is_std_distribution(std::string_view name) {
  constexpr std::string_view kSuffix = "_distribution";
  return name.size() > kSuffix.size() &&
         name.substr(name.size() - kSuffix.size()) == kSuffix;
}

class RngDisciplineRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "rng-discipline";
  }
  [[nodiscard]] std::string_view summary() const override {
    return "raw std engines/distributions and common::Rng outside "
           "src/common/rng.* fork the stream-keyed randomness discipline; "
           "key a common::StreamRng";
  }

  void check(const FileContext& file, std::vector<Finding>& out) const override {
    if (is_rng_home(file.path)) return;
    const auto& tokens = file.tokens();
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != TokenKind::kIdentifier || t.preproc) continue;
      // Member accesses (`obj.mt19937`) are not engine uses; everything
      // else — bare or qualified — counts, since `using std::mt19937` and
      // `using common::Rng` exist.
      if (is_member_access(tokens, i)) continue;
      if (t.text == "Rng") {
        out.push_back({file.path, t.line, std::string(id()),
                       "sequential xoshiro engine common::Rng; key a "
                       "common::StreamRng purpose instead "
                       "(src/common/rng.hpp)"});
      } else if (is_banned_engine(t.text)) {
        out.push_back({file.path, t.line, std::string(id()),
                       "raw std engine " + t.text +
                           "; randomness must come from a keyed "
                           "common::StreamRng (src/common/rng.hpp)"});
      } else if (is_std_distribution(t.text)) {
        out.push_back({file.path, t.line, std::string(id()),
                       "std distribution " + t.text +
                           " is implementation-defined; use the RngOps "
                           "distribution toolkit in src/common/rng.hpp"});
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_rng_discipline_rule() {
  return std::make_unique<RngDisciplineRule>();
}

}  // namespace updp2p::lint
