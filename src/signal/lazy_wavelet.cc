#include "signal/lazy_wavelet.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/macros.h"
#include "signal/dwt.h"

namespace aims::signal {

double SparseCoefficients::Dot(const std::vector<double>& dense) const {
  double acc = 0.0;
  for (const auto& [idx, val] : entries) {
    AIMS_CHECK(idx < dense.size());
    acc += val * dense[idx];
  }
  return acc;
}

std::vector<std::pair<size_t, double>> SparseCoefficients::ByMagnitude()
    const {
  std::vector<std::pair<size_t, double>> sorted = entries;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) {
              return std::fabs(a.second) > std::fabs(b.second);
            });
  return sorted;
}

double SparseCoefficients::EnergySquared() const {
  double acc = 0.0;
  for (const auto& [idx, val] : entries) {
    (void)idx;
    acc += val * val;
  }
  return acc;
}

namespace {

/// The symbolic interior of one analysis level: p(x) = c[0] + ... +
/// c[size-1] x^(size-1). The degree never grows (composing with 2x + t
/// keeps it) and starts below the filter's vanishing moments, at most 4
/// (db4), so four fixed slots hold it. Slots at and past `size` stay 0.0,
/// and every operation does Polynomial's arithmetic in Polynomial's order
/// — the same terms, products and trim — so the bits match it.
struct InteriorPoly {
  static constexpr size_t kMaxTerms = 4;
  std::array<double, kMaxTerms> c{};
  size_t size = 1;

  double Eval(double x) const {
    double acc = 0.0;
    for (size_t i = size; i-- > 0;) acc = acc * x + c[i];
    return acc;
  }

  /// p(a x + b), by Horner in the polynomial ring, trailing coefficients
  /// below 1e-12 dropped (Polynomial::ComposeAffine then Trim).
  InteriorPoly ComposeAffine(double a, double b) const {
    InteriorPoly result;
    result.c[0] = c[size - 1];
    for (size_t i = size - 1; i-- > 0;) {
      std::array<double, kMaxTerms> next{};
      for (size_t j = 0; j < result.size; ++j) {
        next[j] += result.c[j] * b;
        next[j + 1] += result.c[j] * a;
      }
      next[0] += c[i];
      result.c = next;
      ++result.size;
    }
    while (result.size > 1 && std::fabs(result.c[result.size - 1]) < 1e-12) {
      result.c[--result.size] = 0.0;
    }
    return result;
  }

  /// this += scale * other.
  void AddScaled(const InteriorPoly& other, double scale) {
    size = std::max(size, other.size);
    for (size_t i = 0; i < other.size; ++i) c[i] += scale * other.c[i];
  }

  double MaxAbsCoeff() const {
    double m = 0.0;
    for (size_t i = 0; i < size; ++i) m = std::max(m, std::fabs(c[i]));
    return m;
  }
};

struct ExplicitValue {
  size_t index = 0;
  double value = 0.0;
};

/// Mutable state of one analysis level: value(i) = the explicit value at
/// i if there is one, else poly(i) when i lies in [interior_lo,
/// interior_hi], else 0. The explicit values are sorted by index and never
/// overlap the interior.
struct LevelState {
  size_t n = 0;
  bool has_interior = false;
  size_t interior_lo = 0;
  size_t interior_hi = 0;
  InteriorPoly poly;
  std::vector<ExplicitValue> explicit_values;

  /// The first explicit value at an index >= i.
  std::vector<ExplicitValue>::const_iterator LowerBound(size_t i) const {
    return std::lower_bound(
        explicit_values.begin(), explicit_values.end(), i,
        [](const ExplicitValue& e, size_t index) { return e.index < index; });
  }

  double ValueAt(size_t i) const {
    if (has_interior && i >= interior_lo && i <= interior_hi) {
      return poly.Eval(static_cast<double>(i));
    }
    auto it = LowerBound(i);
    return it != explicit_values.end() && it->index == i ? it->value : 0.0;
  }

  /// Folds the symbolic interior into the explicit values. Called only on
  /// a small level or a narrow interior, so the insert moves few entries.
  void MaterializeInterior() {
    if (!has_interior) return;
    auto pos = LowerBound(interior_lo);
    const size_t at = static_cast<size_t>(pos - explicit_values.begin());
    explicit_values.insert(pos, interior_hi - interior_lo + 1,
                           ExplicitValue{});
    for (size_t i = interior_lo; i <= interior_hi; ++i) {
      explicit_values[at + (i - interior_lo)] = {
          i, poly.Eval(static_cast<double>(i))};
    }
    has_interior = false;
  }
};

}  // namespace

Result<SparseCoefficients> LazyWaveletTransform(const WaveletFilter& filter,
                                                size_t n, size_t lo, size_t hi,
                                                const Polynomial& poly) {
  if (!IsPowerOfTwo(n)) {
    return Status::InvalidArgument(
        "LazyWaveletTransform: n must be a power of two");
  }
  if (lo > hi || hi >= n) {
    return Status::InvalidArgument("LazyWaveletTransform: bad range");
  }
  if (poly.degree() >= filter.vanishing_moments()) {
    return Status::InvalidArgument(
        "LazyWaveletTransform: polynomial degree must be below the filter's "
        "vanishing moments for a sparse transform");
  }
  // A filter with more vanishing moments than db4 needs a wider interior.
  AIMS_CHECK(poly.coeffs().size() <= InteriorPoly::kMaxTerms);

  const auto& h = filter.lowpass();
  const auto& g = filter.highpass();
  const size_t L = filter.length();
  const int levels = MaxLevels(n);

  SparseCoefficients result;
  // About L details near each end of the range per level, and the root.
  result.entries.reserve(2 * L * static_cast<size_t>(levels) + 1);
  LevelState state;
  state.n = n;
  state.has_interior = true;
  state.interior_lo = lo;
  state.interior_hi = hi;
  state.poly.size = poly.coeffs().size();
  std::copy(poly.coeffs().begin(), poly.coeffs().end(), state.poly.c.begin());
  // Reused across levels: the next level's state and the candidate outputs.
  LevelState next;
  std::vector<size_t> candidates;

  // The interior polynomial changes every level, so its one-level map —
  // p'(j) = sum_t h[t] p(2j + t) — is recomputed inside the loop, on four
  // fixed slots per tap.
  for (int level = 1; level <= levels; ++level) {
    const size_t n_cur = state.n;
    const size_t n_half = n_cur / 2;
    const size_t mask = n_cur - 1;  // n_cur is a power of two: % is &

    // Small signals: give up on symbolics, go fully explicit.
    if (state.has_interior && n_cur <= std::max<size_t>(4 * L, 8)) {
      state.MaterializeInterior();
    }

    // New symbolic interior output range: windows fully inside the interior.
    bool out_has_interior = false;
    size_t out_lo = 0, out_hi = 0;
    InteriorPoly out_poly;
    if (state.has_interior) {
      size_t jlo = (state.interior_lo + 1) / 2;  // ceil(ilo / 2)
      // 2j + L - 1 <= ihi  =>  j <= (ihi - L + 1) / 2, if representable.
      if (state.interior_hi + 1 >= L) {
        size_t jhi_num = state.interior_hi - (L - 1);
        size_t jhi = jhi_num / 2;
        if (jlo <= jhi && jhi < n_half) {
          out_has_interior = true;
          out_lo = jlo;
          out_hi = jhi;
        }
      }
      if (!out_has_interior) {
        // Interior too small to carry symbolically; make it explicit.
        state.MaterializeInterior();
      }
    }

    if (out_has_interior) {
      // Symbolic lowpass: p'(j) = sum_t h[t] p(2j + t); symbolic highpass
      // must vanish by the moment condition — verified numerically.
      InteriorPoly detail_poly;
      for (size_t t = 0; t < L; ++t) {
        InteriorPoly shifted =
            state.poly.ComposeAffine(2.0, static_cast<double>(t));
        out_poly.AddScaled(shifted, h[t]);
        detail_poly.AddScaled(shifted, g[t]);
      }
      double scale = std::max(1.0, out_poly.MaxAbsCoeff());
      if (detail_poly.MaxAbsCoeff() > 1e-6 * scale) {
        return Status::Internal(
            "LazyWaveletTransform: interior details did not vanish; filter "
            "moment condition violated");
      }
    }

    // Candidate explicit outputs: any j (outside the symbolic interior)
    // whose analysis window touches an explicit value or the boundary zone
    // of the interior. An input touched twice adds its outputs twice; the
    // sort and unique below leave each candidate once, ascending.
    candidates.clear();
    auto add_outputs_of = [&](size_t i) {
      for (size_t t = 0; t < L; ++t) {
        // Solve (2j + t) mod n_cur == i for j; j < n_half since m < n_cur.
        size_t m = (i + n_cur - (t & mask)) & mask;
        if (m % 2 == 0) candidates.push_back(m / 2);
      }
    };
    for (const ExplicitValue& e : state.explicit_values) {
      add_outputs_of(e.index);
    }
    if (state.has_interior) {
      size_t zone = L;  // windows reach at most L-1 past an edge
      size_t lo_end = std::min(state.interior_lo + zone, state.interior_hi);
      for (size_t i = state.interior_lo; i <= lo_end; ++i) add_outputs_of(i);
      size_t hi_start = state.interior_hi >= zone
                            ? std::max(state.interior_hi - zone,
                                       state.interior_lo)
                            : state.interior_lo;
      for (size_t i = hi_start; i <= state.interior_hi; ++i) {
        add_outputs_of(i);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    next.n = n_half;
    next.has_interior = out_has_interior;
    next.interior_lo = out_lo;
    next.interior_hi = out_hi;
    next.poly = out_poly;
    next.explicit_values.clear();

    for (size_t j : candidates) {
      if (out_has_interior && j >= out_lo && j <= out_hi) continue;
      double s = 0.0, d = 0.0;
      for (size_t t = 0; t < L; ++t) {
        double v = state.ValueAt((2 * j + t) & mask);
        s += h[t] * v;
        d += g[t] * v;
      }
      if (std::fabs(d) > 1e-12) {
        result.entries.emplace_back(DetailIndex(n, level, j), d);
      }
      if (std::fabs(s) > 1e-14) {
        next.explicit_values.push_back({j, s});
      }
    }

    std::swap(state, next);
  }

  // The single remaining value is the overall scaling coefficient.
  AIMS_CHECK(state.n == 1);
  double root = state.ValueAt(0);
  if (std::fabs(root) > 1e-12) {
    result.entries.emplace_back(0, root);
  }

  std::sort(result.entries.begin(), result.entries.end());
  return result;
}

Result<SparseCoefficients> DenseQueryTransform(const WaveletFilter& filter,
                                               size_t n, size_t lo, size_t hi,
                                               const Polynomial& poly,
                                               double tol) {
  if (!IsPowerOfTwo(n)) {
    return Status::InvalidArgument(
        "DenseQueryTransform: n must be a power of two");
  }
  if (lo > hi || hi >= n) {
    return Status::InvalidArgument("DenseQueryTransform: bad range");
  }
  std::vector<double> q(n, 0.0);
  for (size_t i = lo; i <= hi; ++i) q[i] = poly.Eval(static_cast<double>(i));
  AIMS_ASSIGN_OR_RETURN(std::vector<double> t, ForwardDwt(filter, q));
  SparseCoefficients out;
  for (size_t i = 0; i < n; ++i) {
    if (std::fabs(t[i]) > tol) out.entries.emplace_back(i, t[i]);
  }
  return out;
}

}  // namespace aims::signal
