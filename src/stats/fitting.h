// Curve fitting for the Target Generator's statistical-extrapolation
// mode (Sec. III-C): statistics of snapshots D1..Dr are fitted against
// snapshot size and extrapolated to the target size.
#pragma once

#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace aspect {

/// Least-squares polynomial fit of degree `degree` through the points
/// (xs[i], ys[i]). Returns coefficients c0..c_degree (lowest first).
/// Fails if there are fewer points than coefficients or the normal
/// equations are singular.
Result<std::vector<double>> PolyFit(const std::vector<double>& xs,
                                    const std::vector<double>& ys,
                                    int degree);

/// Evaluates a polynomial (coefficients lowest-degree first) at x.
double PolyEval(const std::vector<double>& coeffs, double x);

}  // namespace aspect
