#include "stats/fitting.h"

#include <cmath>

namespace aspect {
namespace {

/// Solves the dense linear system A x = b by Gaussian elimination with
/// partial pivoting. A is row-major n x n.
Result<std::vector<double>> SolveLinear(std::vector<double> a,
                                        std::vector<double> b) {
  const size_t n = b.size();
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r * n + col]) > std::fabs(a[pivot * n + col])) {
        pivot = r;
      }
    }
    if (std::fabs(a[pivot * n + col]) < 1e-12) {
      return Status::Invalid("singular system in least-squares fit");
    }
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a[pivot * n + c], a[col * n + c]);
      std::swap(b[pivot], b[col]);
    }
    for (size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] / a[col * n + col];
      for (size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (size_t c = ri + 1; c < n; ++c) acc -= a[ri * n + c] * x[c];
    x[ri] = acc / a[ri * n + ri];
  }
  return x;
}

}  // namespace

Result<std::vector<double>> PolyFit(const std::vector<double>& xs,
                                    const std::vector<double>& ys,
                                    int degree) {
  if (degree < 0) return Status::Invalid("negative degree");
  const size_t m = static_cast<size_t>(degree) + 1;
  if (xs.size() != ys.size() || xs.size() < m) {
    return Status::Invalid("not enough points for polynomial fit");
  }
  // Normal equations: (V^T V) c = V^T y with Vandermonde V.
  std::vector<double> ata(m * m, 0.0);
  std::vector<double> aty(m, 0.0);
  for (size_t i = 0; i < xs.size(); ++i) {
    std::vector<double> powers(2 * m - 1, 1.0);
    for (size_t p = 1; p < powers.size(); ++p) {
      powers[p] = powers[p - 1] * xs[i];
    }
    for (size_t r = 0; r < m; ++r) {
      for (size_t c = 0; c < m; ++c) ata[r * m + c] += powers[r + c];
      aty[r] += powers[r] * ys[i];
    }
  }
  return SolveLinear(std::move(ata), std::move(aty));
}

double PolyEval(const std::vector<double>& coeffs, double x) {
  double acc = 0.0;
  for (size_t i = coeffs.size(); i-- > 0;) acc = acc * x + coeffs[i];
  return acc;
}

}  // namespace aspect
