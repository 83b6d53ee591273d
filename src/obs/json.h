// Minimal JSON emission for the observability layer.
//
// The obs subsystem writes two machine-readable artefacts — Chrome
// trace-event files and per-bench run manifests — and both must be valid
// JSON without pulling a parser dependency into the repo. This header
// provides the three escaping/formatting helpers the writers share. The
// one JSON reader is serve::ParseJson (serve/wire.h); the tests parse
// every emitted document back through it.
#ifndef RLBENCH_SRC_OBS_JSON_H_
#define RLBENCH_SRC_OBS_JSON_H_

#include <string>
#include <string_view>

namespace rlbench::obs {

/// \brief `text` with JSON string escapes applied (no surrounding quotes).
///
/// Escapes `"` `\` and control characters (the latter as \u00XX); all
/// other bytes pass through untouched, so valid UTF-8 stays valid.
std::string JsonEscape(std::string_view text);

/// \brief `text` as a quoted JSON string literal.
std::string JsonString(std::string_view text);

/// \brief `value` as a JSON number token.
///
/// Finite values round-trip through %.17g (shortest form readable back
/// bit-exactly by strtod); NaN and infinities — which JSON cannot
/// represent — become `null`.
std::string JsonNumber(double value);

}  // namespace rlbench::obs

#endif  // RLBENCH_SRC_OBS_JSON_H_
