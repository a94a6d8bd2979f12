#include "stats/lasso.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/obs.hpp"
#include "stats/descriptive.hpp"

namespace rca::stats {

namespace {

double sigmoid(double t) {
  if (t >= 0.0) {
    const double e = std::exp(-t);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(t);
  return e / (1.0 + e);
}

double soft_threshold(double z, double gamma) {
  if (z > gamma) return z - gamma;
  if (z < -gamma) return z + gamma;
  return 0.0;
}

/// Column-standardized copy of x (constant columns become zeros).
Matrix standardize_columns(const Matrix& x) {
  Matrix z(x.rows(), x.cols());
  for (std::size_t j = 0; j < x.cols(); ++j) {
    std::vector<double> col = x.column(j);
    const double mu = mean(col);
    double sd = stddev(col);
    if (sd < 1e-300) sd = 1.0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      z.at(i, j) = (x.at(i, j) - mu) / sd;
    }
  }
  return z;
}

}  // namespace

std::size_t LassoModel::nonzero_count(double tol) const {
  std::size_t n = 0;
  for (double w : weights) {
    if (std::abs(w) > tol) ++n;
  }
  return n;
}

LassoModel lasso_logistic(const Matrix& x, const std::vector<int>& y,
                          const LassoOptions& opts) {
  RCA_CHECK_MSG(x.rows() == y.size(), "label count mismatch");
  RCA_CHECK_MSG(x.rows() >= 2, "lasso needs at least two observations");
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  const Matrix z = opts.standardize ? standardize_columns(x) : x;

  LassoModel model;
  model.weights.assign(p, 0.0);

  // Linear predictor eta_i maintained incrementally, and the residuals
  // y_i - sigmoid(eta_i) cached alongside: refreshed only when eta moves,
  // since most coordinates sit at zero and leave it unchanged.
  std::vector<double> eta(n, 0.0);
  std::vector<double> resid(n);
  auto refresh_residuals = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      resid[i] = static_cast<double>(y[i]) - sigmoid(eta[i]);
    }
  };
  refresh_residuals();
  // Hessian upper bound per coordinate: H_jj = (1/4n) * sum x_ij^2.
  std::vector<double> hjj(p, 0.0);
  for (std::size_t j = 0; j < p; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += z.at(i, j) * z.at(i, j);
    hjj[j] = s / (4.0 * static_cast<double>(n));
    if (hjj[j] < 1e-12) hjj[j] = 1e-12;
  }

  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    ++model.iterations;
    double max_delta = 0.0;

    // Intercept (unpenalized) via the same bounded-Hessian step.
    {
      double grad = 0.0;
      for (std::size_t i = 0; i < n; ++i) grad += resid[i];
      grad /= static_cast<double>(n);
      const double delta = grad / 0.25;
      model.intercept += delta;
      for (double& e : eta) e += delta;
      if (delta != 0.0) refresh_residuals();
      max_delta = std::max(max_delta, std::abs(delta));
    }

    for (std::size_t j = 0; j < p; ++j) {
      double grad = 0.0;
      for (std::size_t i = 0; i < n; ++i) grad += z.at(i, j) * resid[i];
      grad /= static_cast<double>(n);
      const double w_old = model.weights[j];
      const double w_new =
          soft_threshold(w_old * hjj[j] + grad, opts.lambda) / hjj[j];
      const double delta = w_new - w_old;
      if (delta != 0.0) {
        model.weights[j] = w_new;
        for (std::size_t i = 0; i < n; ++i) eta[i] += delta * z.at(i, j);
        refresh_residuals();
        max_delta = std::max(max_delta, std::abs(delta));
      }
    }
    if (max_delta < opts.tolerance) break;
  }
  obs::count("stats.lasso.fits");
  obs::count("stats.lasso.iterations", model.iterations);
  obs::observe("stats.lasso.iterations_per_fit",
               static_cast<double>(model.iterations));
  return model;
}

namespace {

/// Largest |x_j . (y - ybar)| / n over columns: the smallest penalty at
/// which every weight stays zero.
double lambda_max_of(const Matrix& x, const std::vector<int>& y) {
  const std::size_t n = x.rows();
  const double ybar =
      std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(n);
  double lam = 0.0;
  for (std::size_t j = 0; j < x.cols(); ++j) {
    double g = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      g += x.at(i, j) * (static_cast<double>(y[i]) - ybar);
    }
    lam = std::max(lam, std::abs(g) / static_cast<double>(n));
  }
  return lam;
}

}  // namespace

double lasso_lambda_max(const Matrix& x, const std::vector<int>& y) {
  return lambda_max_of(standardize_columns(x), y);
}

std::vector<std::size_t> select_variables(const Matrix& x,
                                          const std::vector<int>& y,
                                          std::size_t target_count,
                                          std::size_t max_bisections,
                                          bool standardize) {
  const double lam_max =
      standardize ? lasso_lambda_max(x, y) : lambda_max_of(x, y);
  double lo = lam_max * 1e-4;  // dense end
  double hi = lam_max;         // empty end

  LassoOptions opts;
  opts.standardize = standardize;
  LassoModel best;
  std::size_t best_gap = static_cast<std::size_t>(-1);

  for (std::size_t it = 0; it < max_bisections; ++it) {
    obs::count("stats.lasso.bisections");
    const double lam = std::sqrt(lo * hi);  // geometric bisection
    opts.lambda = lam;
    LassoModel model = lasso_logistic(x, y, opts);
    const std::size_t k = model.nonzero_count();
    const std::size_t gap = k > target_count ? k - target_count
                                             : target_count - k;
    if (gap < best_gap || (gap == best_gap && k >= target_count)) {
      best_gap = gap;
      best = model;
    }
    if (k == target_count) break;
    if (k > target_count) {
      lo = lam;  // too dense: increase penalty
    } else {
      hi = lam;  // too sparse: decrease penalty
    }
  }

  std::vector<std::size_t> selected;
  for (std::size_t j = 0; j < best.weights.size(); ++j) {
    if (std::abs(best.weights[j]) > 1e-9) selected.push_back(j);
  }
  std::sort(selected.begin(), selected.end(),
            [&best](std::size_t a, std::size_t b) {
              const double wa = std::abs(best.weights[a]);
              const double wb = std::abs(best.weights[b]);
              if (wa != wb) return wa > wb;
              return a < b;
            });
  return selected;
}

}  // namespace rca::stats
