#include "signal/dwt.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace aims::signal {

bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

int MaxLevels(size_t n) {
  int levels = 0;
  while (n > 1 && n % 2 == 0) {
    n /= 2;
    ++levels;
  }
  return levels;
}

namespace {

/// Outputs j whose filter window [2j, 2j + len) lies inside a length-n
/// input: they need no periodic wrap. Only the last len/2 - 1 outputs (all
/// of them when n < len) wrap around the end.
size_t UnwrappedOutputs(size_t n, size_t len) {
  return n >= len ? std::min(n / 2, (n - len) / 2 + 1) : 0;
}

}  // namespace

void DwtStep(const WaveletFilter& filter, const std::vector<double>& input,
             std::vector<double>* scaling, std::vector<double>* detail) {
  const size_t n = input.size();
  AIMS_CHECK(n % 2 == 0 && n > 0);
  const size_t half = n / 2;
  const double* h = filter.lowpass().data();
  const double* g = filter.highpass().data();
  const size_t len = filter.length();
  scaling->resize(half);
  detail->resize(half);
  const double* x = input.data();
  double* out_s = scaling->data();
  double* out_d = detail->data();
  // Each output sums the same products in the same tap order whether or
  // not its window wraps, so both loops give the periodic convolution's
  // exact bits.
  const size_t unwrapped = UnwrappedOutputs(n, len);
  for (size_t j = 0; j < unwrapped; ++j) {
    const double* w = x + 2 * j;
    double s = 0.0, d = 0.0;
    for (size_t t = 0; t < len; ++t) {
      s += h[t] * w[t];
      d += g[t] * w[t];
    }
    out_s[j] = s;
    out_d[j] = d;
  }
  for (size_t j = unwrapped; j < half; ++j) {
    double s = 0.0, d = 0.0;
    for (size_t t = 0; t < len; ++t) {
      const double v = x[(2 * j + t) % n];
      s += h[t] * v;
      d += g[t] * v;
    }
    out_s[j] = s;
    out_d[j] = d;
  }
}

void IdwtStep(const WaveletFilter& filter, const std::vector<double>& scaling,
              const std::vector<double>& detail, std::vector<double>* output) {
  const size_t half = scaling.size();
  AIMS_CHECK(detail.size() == half && half > 0);
  const size_t n = 2 * half;
  const double* h = filter.lowpass().data();
  const double* g = filter.highpass().data();
  const size_t len = filter.length();
  output->assign(n, 0.0);
  double* out = output->data();
  // Transpose of the analysis operator (orthonormal => inverse). Every
  // output accumulates its contributions in ascending j either way, and
  // the wrapping j come last, so splitting the loop keeps the exact bits.
  const size_t unwrapped = UnwrappedOutputs(n, len);
  for (size_t j = 0; j < unwrapped; ++j) {
    double* w = out + 2 * j;
    const double s = scaling[j];
    const double d = detail[j];
    for (size_t t = 0; t < len; ++t) w[t] += h[t] * s + g[t] * d;
  }
  for (size_t j = unwrapped; j < half; ++j) {
    for (size_t t = 0; t < len; ++t) {
      out[(2 * j + t) % n] += h[t] * scaling[j] + g[t] * detail[j];
    }
  }
}

Result<std::vector<double>> ForwardDwt(const WaveletFilter& filter,
                                       const std::vector<double>& signal,
                                       int levels) {
  const size_t n = signal.size();
  if (!IsPowerOfTwo(n)) {
    return Status::InvalidArgument("ForwardDwt: length must be a power of two");
  }
  int max_levels = MaxLevels(n);
  if (levels < 0) levels = max_levels;
  if (levels > max_levels) {
    return Status::InvalidArgument("ForwardDwt: too many levels requested");
  }
  std::vector<double> out = signal;
  std::vector<double> current(signal);
  std::vector<double> s, d;
  size_t span = n;
  for (int l = 0; l < levels; ++l) {
    DwtStep(filter, current, &s, &d);
    span /= 2;
    for (size_t k = 0; k < span; ++k) {
      out[k] = s[k];
      out[span + k] = d[k];
    }
    current.swap(s);
  }
  return out;
}

Result<std::vector<double>> InverseDwt(const WaveletFilter& filter,
                                       const std::vector<double>& coeffs,
                                       int levels) {
  const size_t n = coeffs.size();
  if (!IsPowerOfTwo(n)) {
    return Status::InvalidArgument("InverseDwt: length must be a power of two");
  }
  int max_levels = MaxLevels(n);
  if (levels < 0) levels = max_levels;
  if (levels > max_levels) {
    return Status::InvalidArgument("InverseDwt: too many levels requested");
  }
  std::vector<double> out = coeffs;
  size_t span = n >> levels;
  std::vector<double> s, d, merged;
  for (int l = levels; l >= 1; --l) {
    s.assign(out.begin(), out.begin() + static_cast<ptrdiff_t>(span));
    d.assign(out.begin() + static_cast<ptrdiff_t>(span),
             out.begin() + static_cast<ptrdiff_t>(2 * span));
    IdwtStep(filter, s, d, &merged);
    for (size_t k = 0; k < 2 * span; ++k) out[k] = merged[k];
    span *= 2;
  }
  return out;
}

size_t DetailIndex(size_t n, int level, size_t k) {
  AIMS_CHECK(level >= 1);
  size_t base = n >> level;
  AIMS_CHECK(k < base);
  return base + k;
}

size_t ScalingIndex(size_t n, int levels, size_t k) {
  size_t base = n >> levels;
  AIMS_CHECK(k < base);
  (void)n;
  return k;
}

TensorDwt::TensorDwt(WaveletFilter filter, std::vector<size_t> shape)
    : filters_(shape.size(), filter), shape_(std::move(shape)) {
  // Delegate the shared validation manually (a delegating constructor
  // would leave the evaluation order of `shape.size()` vs `move(shape)`
  // unspecified).
  total_size_ = 1;
  for (size_t e : shape_) {
    AIMS_CHECK(IsPowerOfTwo(e));
    total_size_ *= e;
  }
}

TensorDwt::TensorDwt(std::vector<WaveletFilter> filters,
                     std::vector<size_t> shape)
    : filters_(std::move(filters)), shape_(std::move(shape)) {
  AIMS_CHECK(filters_.size() == shape_.size());
  total_size_ = 1;
  for (size_t e : shape_) {
    AIMS_CHECK(IsPowerOfTwo(e));
    total_size_ *= e;
  }
}

const WaveletFilter& TensorDwt::filter(size_t axis) const {
  AIMS_CHECK(axis < filters_.size());
  return filters_[axis];
}

size_t TensorDwt::FlatIndex(const std::vector<size_t>& idx) const {
  AIMS_CHECK(idx.size() == shape_.size());
  size_t flat = 0;
  for (size_t d = 0; d < shape_.size(); ++d) {
    AIMS_CHECK(idx[d] < shape_[d]);
    flat = flat * shape_[d] + idx[d];
  }
  return flat;
}

Status TensorDwt::TransformAxis(std::vector<double>* data, size_t axis,
                                Direction dir) const {
  const size_t extent = shape_[axis];
  // Row-major: stride of `axis` is the product of trailing extents.
  size_t stride = 1;
  for (size_t d = axis + 1; d < shape_.size(); ++d) stride *= shape_[d];
  const size_t num_lines = total_size_ / extent;
  std::vector<double> line(extent);
  for (size_t li = 0; li < num_lines; ++li) {
    // Decompose line index into (outer, inner) around the axis.
    size_t outer = li / stride;
    size_t inner = li % stride;
    size_t base = outer * extent * stride + inner;
    for (size_t k = 0; k < extent; ++k) line[k] = (*data)[base + k * stride];
    Result<std::vector<double>> res =
        dir == Direction::kForward ? ForwardDwt(filters_[axis], line)
                                   : InverseDwt(filters_[axis], line);
    AIMS_RETURN_NOT_OK(res.status());
    const std::vector<double>& t = res.ValueOrDie();
    for (size_t k = 0; k < extent; ++k) (*data)[base + k * stride] = t[k];
  }
  return Status::OK();
}

Status TensorDwt::Forward(std::vector<double>* data) const {
  if (data->size() != total_size_) {
    return Status::InvalidArgument("TensorDwt::Forward: size mismatch");
  }
  for (size_t axis = 0; axis < shape_.size(); ++axis) {
    AIMS_RETURN_NOT_OK(TransformAxis(data, axis, Direction::kForward));
  }
  return Status::OK();
}

Status TensorDwt::Inverse(std::vector<double>* data) const {
  if (data->size() != total_size_) {
    return Status::InvalidArgument("TensorDwt::Inverse: size mismatch");
  }
  for (size_t axis = 0; axis < shape_.size(); ++axis) {
    AIMS_RETURN_NOT_OK(TransformAxis(data, axis, Direction::kInverse));
  }
  return Status::OK();
}

void StreamingHaarDwt::Push(double sample, std::vector<Emitted>* out) {
  ++samples_seen_;
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  double carry = sample;
  for (size_t level = 0;; ++level) {
    if (pending_.size() <= level) {
      pending_.push_back(0.0);
      has_pending_.push_back(false);
      emitted_per_level_.push_back(0);
    }
    if (!has_pending_[level]) {
      pending_[level] = carry;
      has_pending_[level] = true;
      return;
    }
    // Pair completed at this level: emit the detail, carry the scaling up.
    double a = pending_[level];
    double b = carry;
    has_pending_[level] = false;
    double detail = (a - b) * inv_sqrt2;
    out->push_back(Emitted{static_cast<int>(level) + 1,
                           emitted_per_level_[level], detail, false});
    ++emitted_per_level_[level];
    carry = (a + b) * inv_sqrt2;
  }
}

StreamingDwt::StreamingDwt(WaveletFilter filter, int max_levels)
    : filter_(std::move(filter)), max_levels_(max_levels) {
  AIMS_CHECK(max_levels >= 1);
  levels_.resize(static_cast<size_t>(max_levels));
}

void StreamingDwt::Push(double sample, std::vector<Emitted>* out) {
  ++samples_seen_;
  PushToLevel(0, sample, out);
}

void StreamingDwt::PushToLevel(int level, double value,
                               std::vector<Emitted>* out) {
  LevelState& state = levels_[static_cast<size_t>(level)];
  state.window.push_back(value);
  const size_t L = filter_.length();
  // Output j consumes inputs [2j, 2j + L). Emit every output whose window
  // just completed.
  while (true) {
    size_t next_in = state.first_index + state.window.size();  // exclusive
    size_t needed_end = 2 * state.next_output + L;
    if (next_in < needed_end) break;
    size_t base = 2 * state.next_output - state.first_index;
    double s = 0.0, d = 0.0;
    for (size_t t = 0; t < L; ++t) {
      double x = state.window[base + t];
      s += filter_.lowpass()[t] * x;
      d += filter_.highpass()[t] * x;
    }
    bool coarsest = level + 1 == max_levels_;
    out->push_back(Emitted{level + 1, state.next_output, d,
                           /*is_scaling=*/false});
    if (coarsest) {
      out->push_back(Emitted{level + 1, state.next_output, s,
                             /*is_scaling=*/true});
    } else {
      PushToLevel(level + 1, s, out);
    }
    ++state.next_output;
    // Drop inputs no later outputs can reach (window start advances by 2).
    size_t keep_from = 2 * state.next_output;
    if (keep_from > state.first_index) {
      size_t drop = keep_from - state.first_index;
      drop = std::min(drop, state.window.size());
      state.window.erase(state.window.begin(),
                         state.window.begin() + static_cast<ptrdiff_t>(drop));
      state.first_index += drop;
    }
  }
}

void LinearDwtReference(const WaveletFilter& filter,
                        const std::vector<double>& signal, int levels,
                        std::vector<std::vector<double>>* details,
                        std::vector<double>* coarsest_scaling) {
  const auto& h = filter.lowpass();
  const auto& g = filter.highpass();
  const size_t L = filter.length();
  details->assign(static_cast<size_t>(levels), {});
  std::vector<double> current = signal;
  for (int l = 0; l < levels; ++l) {
    std::vector<double> s, d;
    for (size_t j = 0; 2 * j + L <= current.size(); ++j) {
      double sv = 0.0, dv = 0.0;
      for (size_t t = 0; t < L; ++t) {
        sv += h[t] * current[2 * j + t];
        dv += g[t] * current[2 * j + t];
      }
      s.push_back(sv);
      d.push_back(dv);
    }
    (*details)[static_cast<size_t>(l)] = std::move(d);
    current = std::move(s);
  }
  *coarsest_scaling = std::move(current);
}

void StreamingHaarDwt::Finish(std::vector<Emitted>* out) {
  // For a power-of-two stream only the topmost pending slot is set: the
  // global scaling coefficient. Emit every pending scaling value from
  // coarsest down so partial streams are still fully described.
  for (size_t level = pending_.size(); level-- > 0;) {
    if (has_pending_[level]) {
      out->push_back(Emitted{static_cast<int>(level) + 1, 0, pending_[level],
                             /*is_scaling=*/true});
      has_pending_[level] = false;
    }
  }
}

}  // namespace aims::signal
