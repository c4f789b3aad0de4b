#include "core/tcss_config.h"

#include <cmath>

#include "common/strings.h"

namespace tcss {

const char* InitMethodName(InitMethod m) {
  switch (m) {
    case InitMethod::kSpectral:
      return "spectral";
    case InitMethod::kRandom:
      return "random";
    case InitMethod::kOneHot:
      return "one-hot";
  }
  return "?";
}

const char* LossModeName(LossMode m) {
  switch (m) {
    case LossMode::kRewritten:
      return "rewritten";
    case LossMode::kNaive:
      return "naive";
    case LossMode::kNegativeSampling:
      return "negative-sampling";
  }
  return "?";
}

const char* HausdorffModeName(HausdorffMode m) {
  switch (m) {
    case HausdorffMode::kSocial:
      return "social";
    case HausdorffMode::kSelf:
      return "self";
    case HausdorffMode::kZeroOut:
      return "zero-out";
    case HausdorffMode::kNone:
      return "none";
  }
  return "?";
}

std::string TcssConfig::Summary() const {
  return StrFormat(
      "TCSS{r=%zu epochs=%d lr=%g w+=%g w-=%g lambda=%g alpha=%g init=%s "
      "loss=%s hausdorff=%s pool=%zu threads=%d}",
      rank, epochs, learning_rate, w_pos, w_neg, lambda, alpha,
      InitMethodName(init), LossModeName(loss_mode),
      HausdorffModeName(hausdorff), hausdorff_pool, num_threads);
}

namespace {

// Finite and in range: NaN fails both (every comparison with NaN is
// false), and so does an infinity.
bool Positive(double v) { return std::isfinite(v) && v > 0; }
bool NonNegative(double v) { return std::isfinite(v) && v >= 0; }

}  // namespace

std::string TcssConfig::Validate() const {
  if (rank == 0) return "rank must be positive";
  if (epochs < 0) return "epochs must be non-negative";
  if (!Positive(learning_rate)) return "learning_rate must be positive";
  if (!Positive(lr_step_factor) || lr_step_factor > 1) {
    return "lr_step_factor must be in (0, 1]";
  }
  if (!Positive(w_pos) || !NonNegative(w_neg)) {
    return "weights must be positive";
  }
  if (w_pos < w_neg) return "w_pos should not be below w_neg";
  if (!NonNegative(lambda)) return "lambda must be non-negative";
  if (!Positive(-alpha)) return "alpha must be negative (soft minimum)";
  if (!NonNegative(temporal_smoothness)) {
    return "temporal_smoothness must be non-negative";
  }
  if (num_threads < 0 || num_threads > 1024) {
    return "num_threads must be in [0, 1024] (0 = hardware concurrency)";
  }
  return "";
}

}  // namespace tcss
