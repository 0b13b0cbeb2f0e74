#include "thermal/spectral.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numbers>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "numerics/dense.hpp"
#include "numerics/eigen.hpp"
#include "numerics/fft.hpp"

namespace ptherm::thermal {

namespace {

constexpr double kPi = std::numbers::pi;

/// Exact decay factor e^{-rate * h}, flushed to exactly 0 below 2^-400.
/// A flushed factor multiplies terms far under any double rounding, but the
/// flush keeps the sweep out of subnormal arithmetic (tens of times slower
/// per operation on x86): a long advance drives a band of high modes'
/// factors through the subnormal range, and products of two kept factors
/// (>= 2^-800) stay normal.
double decay_factor(double rate, double h) {
  const double d = std::exp(-rate * h);
  return d < 0x1p-400 ? 0.0 : d;
}

/// integral of cos(m pi u / extent) over [u0, u1].
double cosine_footprint_integral(int m, double extent, double u0, double u1) {
  if (m == 0) return u1 - u0;
  const double f = m * kPi / extent;
  return (std::sin(f * u1) - std::sin(f * u0)) / f;
}

/// Rows of cosine_footprint_integral over m = 0..modes-1 along one axis,
/// memoized by the exact (bitwise) footprint edges: the sources of one grid
/// column or row share their edges, so a batch of projections computes each
/// distinct row once and reuses it. A returned row stays valid until the
/// next call.
class CosineIntegralRows {
 public:
  CosineIntegralRows(int modes, double extent)
      : modes_(static_cast<std::size_t>(modes)), extent_(extent) {}

  const double* row(double u0, double u1) {
    const auto [it, fresh] = first_.try_emplace(
        {std::bit_cast<std::uint64_t>(u0), std::bit_cast<std::uint64_t>(u1)}, rows_.size());
    if (fresh) {
      for (std::size_t m = 0; m < modes_; ++m) {
        rows_.push_back(cosine_footprint_integral(static_cast<int>(m), extent_, u0, u1));
      }
    }
    return rows_.data() + it->second;
  }

 private:
  std::size_t modes_;
  double extent_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> first_;
  std::vector<double> rows_;
};

/// Steady depth profile sinh(g (t - z)) / sinh(g t) ((t - z) / t at g = 0),
/// in the overflow-safe exponential form (g t reaches hundreds at high mode
/// counts).
double steady_depth_profile(double g, double t, double z) {
  if (g == 0.0) return (t - z) / t;
  return std::exp(-g * z) * (1.0 - std::exp(-2.0 * g * (t - z))) /
         (1.0 - std::exp(-2.0 * g * t));
}

/// Per-watt separable flux-projection factors of one source: the source's
/// flux mode coefficient is power * px[m] * py[n] (c_m normalization and
/// clipped-footprint density folded in). The single home of the clipping
/// policy — full power over the die-clipped footprint, fully off-die
/// sources inert (returns false with the factors zeroed), degenerate
/// sources rejected — shared by the steady projection and the transient
/// projection cache so the two paths cannot diverge. `xs`/`ys` memoize the
/// footprint integrals along x (extent die.width, modes_x) and y.
bool unit_flux_factors(const Die& die, const HeatSource& s, int modes_x, int modes_y,
                       CosineIntegralRows& xs, CosineIntegralRows& ys, double* px, double* py) {
  PTHERM_REQUIRE(s.w > 0.0 && s.l > 0.0, "spectral: degenerate source (w, l must be > 0)");
  const double x0 = std::max(s.cx - 0.5 * s.w, 0.0);
  const double x1 = std::min(s.cx + 0.5 * s.w, die.width);
  const double y0 = std::max(s.cy - 0.5 * s.l, 0.0);
  const double y1 = std::min(s.cy + 0.5 * s.l, die.height);
  if (x1 <= x0 || y1 <= y0) {
    std::fill(px, px + modes_x, 0.0);
    std::fill(py, py + modes_y, 0.0);
    return false;
  }
  const double base = 1.0 / ((x1 - x0) * (y1 - y0) * die.width * die.height);
  const double* ix = xs.row(x0, x1);
  for (int m = 0; m < modes_x; ++m) px[m] = ((m == 0) ? 1.0 : 2.0) * base * ix[m];
  const double* iy = ys.row(y0, y1);
  for (int n = 0; n < modes_y; ++n) py[n] = ((n == 0) ? 1.0 : 2.0) * iy[n];
  return true;
}

/// Cyclic Jacobi eigensolver for a small dense symmetric matrix `a`
/// (row-major, k x k): on return `a` is diagonal (eigenvalues, unsorted)
/// and `v` holds the accumulated rotations column-wise, so eigenvalue
/// a[p * k + p] belongs to eigenvector column p of v. Deterministic fixed
/// sweep order; sized for the Ritz blocks of the layered transient setup
/// (k ~ modes_z + 4), where its rotation count beats both a full QL sweep
/// and division-chain bisection per lateral mode.
void jacobi_eigen_small(std::vector<double>& a, std::vector<double>& v, std::size_t k) {
  v.assign(k * k, 0.0);
  for (std::size_t i = 0; i < k; ++i) v[i * k + i] = 1.0;
  if (k < 2) return;
  double scale = 0.0;
  for (std::size_t i = 0; i < k; ++i) scale = std::max(scale, std::abs(a[i * k + i]));
  for (std::size_t p = 0; p + 1 < k; ++p) {
    for (std::size_t q = p + 1; q < k; ++q) scale = std::max(scale, std::abs(a[p * k + q]));
  }
  if (scale == 0.0) return;
  const double tol = scale * std::numeric_limits<double>::epsilon();
  for (int sweep = 0; sweep < 64; ++sweep) {
    double off_max = 0.0;
    for (std::size_t p = 0; p + 1 < k; ++p) {
      for (std::size_t q = p + 1; q < k; ++q) off_max = std::max(off_max, std::abs(a[p * k + q]));
    }
    if (off_max <= tol) return;
    for (std::size_t p = 0; p + 1 < k; ++p) {
      for (std::size_t q = p + 1; q < k; ++q) {
        const double apq = a[p * k + q];
        if (std::abs(apq) <= tol) continue;
        const double theta = (a[q * k + q] - a[p * k + p]) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Similarity update: columns p, q of A and V, then rows p, q of A.
        for (std::size_t i = 0; i < k; ++i) {
          const double aip = a[i * k + p];
          const double aiq = a[i * k + q];
          a[i * k + p] = c * aip - s * aiq;
          a[i * k + q] = s * aip + c * aiq;
          const double vip = v[i * k + p];
          const double viq = v[i * k + q];
          v[i * k + p] = c * vip - s * viq;
          v[i * k + q] = s * vip + c * viq;
        }
        for (std::size_t j = 0; j < k; ++j) {
          const double apj = a[p * k + j];
          const double aqj = a[q * k + j];
          a[p * k + j] = c * apj - s * aqj;
          a[q * k + j] = s * apj + c * aqj;
        }
      }
    }
  }
  PTHERM_REQUIRE(false, "jacobi_eigen_small: failed to converge");
}

}  // namespace

SpectralThermalSolver::SpectralThermalSolver(Die die, SpectralOptions opts)
    : die_(die), opts_(opts) {
  PTHERM_REQUIRE(die_.width > 0.0 && die_.height > 0.0 && die_.thickness > 0.0,
                 "SpectralThermalSolver: degenerate die");
  PTHERM_REQUIRE(die_.k_si > 0.0, "SpectralThermalSolver: non-positive conductivity");
  PTHERM_REQUIRE(opts_.modes_x >= 1 && opts_.modes_y >= 1,
                 "SpectralThermalSolver: need at least the DC mode per axis");
  PTHERM_REQUIRE(opts_.modes_z >= 1,
                 "SpectralThermalSolver: need at least one z-eigenfunction");
  init_single_die();
}

SpectralThermalSolver::SpectralThermalSolver(Die die, DieStack stack, SpectralOptions opts)
    : die_(die), opts_(opts), stack_(std::move(stack)) {
  PTHERM_REQUIRE(die_.width > 0.0 && die_.height > 0.0,
                 "SpectralThermalSolver: degenerate die");
  PTHERM_REQUIRE(opts_.modes_x >= 1 && opts_.modes_y >= 1,
                 "SpectralThermalSolver: need at least the DC mode per axis");
  PTHERM_REQUIRE(opts_.modes_z >= 1,
                 "SpectralThermalSolver: need at least one z-eigenfunction");
  if (stack_->reduces_to(die_)) {
    // The classic problem in stack clothing: keep the closed-form path so
    // results stay bitwise identical to the single-die constructor.
    init_single_die();
    return;
  }
  layered_ = true;
  PTHERM_REQUIRE(opts_.layered_nz >= static_cast<int>(stack_->layer_count()),
                 "SpectralThermalSolver: layered_nz must cover every stack layer");
  PTHERM_REQUIRE(opts_.layered_nz >= opts_.modes_z,
                 "SpectralThermalSolver: layered_nz must admit modes_z z-modes");
  const auto cells = distribute_stack_cells(*stack_, opts_.layered_nz);
  for (std::size_t l = 0; l < stack_->layer_count(); ++l) {
    const StackLayer& layer = stack_->layers()[l];
    const double dz = layer.thickness / cells[l];
    for (int c = 0; c < cells[l]; ++c) {
      dz_z_.push_back(dz);
      k_z_.push_back(layer.k);
      cv_z_.push_back(layer.cv);
    }
  }
  opts_.modes_z = std::min(opts_.modes_z, static_cast<int>(dz_z_.size()));
  const std::size_t modes = static_cast<std::size_t>(mode_count());
  transfer_.resize(modes);
  g2_.resize(modes);
  for (int n = 0; n < opts_.modes_y; ++n) {
    const double gy = n * kPi / die_.height;
    for (int m = 0; m < opts_.modes_x; ++m) {
      const double gx = m * kPi / die_.width;
      const double g = std::hypot(gx, gy);
      const std::size_t mode = static_cast<std::size_t>(n) * opts_.modes_x + m;
      transfer_[mode] = layered_transfer(g);
      g2_[mode] = g * g;
    }
  }
  // gain_/tail_/lambda_ wait for ensure_transient_modes(): steady-only users
  // (influence columns, steady cosim) never pay the per-mode eigensolves.
}

void SpectralThermalSolver::init_single_die() {
  const double t = die_.thickness;
  const std::size_t modes = static_cast<std::size_t>(mode_count());
  const std::size_t mz = static_cast<std::size_t>(opts_.modes_z);
  transfer_.resize(modes);
  g2_.resize(modes);
  for (int n = 0; n < opts_.modes_y; ++n) {
    const double gy = n * kPi / die_.height;
    for (int m = 0; m < opts_.modes_x; ++m) {
      const double gx = m * kPi / die_.width;
      const double g = std::hypot(gx, gy);
      const std::size_t mode = static_cast<std::size_t>(n) * opts_.modes_x + m;
      transfer_[mode] = (g == 0.0) ? t / die_.k_si : std::tanh(g * t) / (die_.k_si * g);
      g2_[mode] = g * g;
    }
  }
  // z eigenbasis cos(gamma_p z): adiabatic top (zero slope at z = 0),
  // isothermal sink (zero value at z = t). Every mode's steady gain is
  // 2 / (k t (g^2 + gamma_p^2)); the gains sum over all p to the steady
  // transfer, so the truncated tail — carried quasi-statically by the
  // transient integrator — is the closed-form difference. The tail modes'
  // time constants fall like 1/gamma_p^2, so "quasi-static" is exact for any
  // step a transient driver would take.
  gamma2_.resize(mz);
  for (std::size_t p = 0; p < mz; ++p) {
    const double gamma = (static_cast<double>(p) + 0.5) * kPi / t;
    gamma2_[p] = gamma * gamma;
  }
  gain_.resize(modes * mz);
  tail_.resize(modes);
  for (std::size_t mode = 0; mode < modes; ++mode) {
    double carried = 0.0;
    for (std::size_t p = 0; p < mz; ++p) {
      const double gain = 2.0 / (die_.k_si * t * (g2_[mode] + gamma2_[p]));
      gain_[mode * mz + p] = gain;
      carried += gain;
    }
    tail_[mode] = transfer_[mode] - carried;
  }
  transient_ready_ = true;
}

double SpectralThermalSolver::layered_transfer(double g) const {
  const auto& layers = stack_->layers();
  // Bottom-up impedance recursion, seeded at the boundary closure. All the
  // growth lives in tanh (bounded), so g t in the hundreds is safe where the
  // textbook cosh/sinh transfer-matrix product would overflow.
  double z = (stack_->boundary().kind == BoundaryKind::Convective)
                 ? 1.0 / stack_->boundary().h
                 : 0.0;
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    if (g == 0.0) {
      z += it->thickness / it->k;
      continue;
    }
    const double th = std::tanh(g * it->thickness);
    z = (z + th / (it->k * g)) / (1.0 + z * it->k * g * th);
  }
  return z;
}

double SpectralThermalSolver::layered_depth_ratio(double g, double z) const {
  const auto& layers = stack_->layers();
  const std::size_t n = layers.size();
  // Load impedance below each layer (at its bottom face), bottom-up.
  std::vector<double> load(n);
  double acc = (stack_->boundary().kind == BoundaryKind::Convective)
                   ? 1.0 / stack_->boundary().h
                   : 0.0;
  for (std::size_t i = n; i-- > 0;) {
    load[i] = acc;
    if (g == 0.0) {
      acc += layers[i].thickness / layers[i].k;
    } else {
      const double th = std::tanh(g * layers[i].thickness);
      acc = (acc + th / (layers[i].k * g)) / (1.0 + acc * layers[i].k * g * th);
    }
  }
  // Walk down from the surface, multiplying per-slab temperature ratios.
  // Within a slab of thickness t with load Z_L at the bottom, theta(s) /
  // theta(0) = (e^{-g s} + rho e^{-g (2t - s)}) / (1 + rho e^{-2 g t}) with
  // the reflection coefficient rho = (Z_L - Z_c) / (Z_L + Z_c), Z_c =
  // 1/(k g) — two-sided decaying exponentials, so no overflow and no
  // cancellation blowup (|rho| <= 1).
  double ratio = 1.0;
  double top = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = layers[i].thickness;
    const bool last = (z <= top + t) || (i + 1 == n);
    const double s = last ? std::clamp(z - top, 0.0, t) : t;
    if (g == 0.0) {
      const double r_below = load[i] + t / layers[i].k;
      ratio *= (load[i] + (t - s) / layers[i].k) / r_below;
    } else {
      const double zc = 1.0 / (layers[i].k * g);
      const double rho = (load[i] - zc) / (load[i] + zc);
      ratio *= (std::exp(-g * s) + rho * std::exp(-g * (2.0 * t - s))) /
               (1.0 + rho * std::exp(-2.0 * g * t));
    }
    if (last) break;
    top += t;
  }
  return ratio;
}

void SpectralThermalSolver::ensure_transient_modes() const {
  if (transient_ready_) return;
  const std::size_t nz = dz_z_.size();
  const std::size_t mz = static_cast<std::size_t>(opts_.modes_z);
  const std::size_t modes = static_cast<std::size_t>(mode_count());
  // Per-unit-area capacitances and vertical conductances of the z-grid;
  // half-cell harmonic coupling between neighbours, and the boundary
  // closure folded into the bottom cell (isothermal plane — which is also
  // how an attached RC network presents to the conduction operator — or a
  // convective film in series with the bottom half-cell).
  std::vector<double> cap(nz);
  std::vector<double> gv(nz > 1 ? nz - 1 : 0);
  for (std::size_t j = 0; j < nz; ++j) cap[j] = cv_z_[j] * dz_z_[j];
  for (std::size_t j = 0; j + 1 < nz; ++j) {
    gv[j] = 1.0 / (dz_z_[j] / (2.0 * k_z_[j]) + dz_z_[j + 1] / (2.0 * k_z_[j + 1]));
  }
  const double half_bottom = dz_z_[nz - 1] / (2.0 * k_z_[nz - 1]);
  const double gb = stack_->isothermal_operator_boundary()
                        ? 1.0 / half_bottom
                        : 1.0 / (half_bottom + 1.0 / stack_->boundary().h);
  // Symmetrized z-operator at g = 0: S = C^{-1/2} A C^{-1/2}. The lateral
  // eigenvalue only enters the diagonal, as alpha_j g^2 with alpha_j =
  // k_j / cv_j — so if every cell shares one diffusivity, S(g) = S(0) +
  // alpha g^2 I and a single eigendecomposition serves all lateral modes.
  std::vector<double> d0(nz);
  std::vector<double> off(nz > 1 ? nz - 1 : 0);
  for (std::size_t j = 0; j < nz; ++j) {
    double a = (j + 1 == nz) ? gb : gv[j];
    if (j > 0) a += gv[j - 1];
    d0[j] = a / cap[j];
    if (j + 1 < nz) off[j] = -gv[j] / std::sqrt(cap[j] * cap[j + 1]);
  }
  bool uniform_alpha = true;
  const double alpha0 = k_z_[0] / cv_z_[0];
  for (std::size_t j = 1; j < nz; ++j) {
    if (k_z_[j] / cv_z_[j] != alpha0) {
      uniform_alpha = false;
      break;
    }
  }
  lambda_.assign(modes * mz, 0.0);
  gain_.assign(modes * mz, 0.0);
  tail_.assign(modes, 0.0);
  const double inv_sqrt_c0 = 1.0 / std::sqrt(cap[0]);
  if (uniform_alpha) {
    const auto evals = numerics::tridiagonal_smallest_eigenvalues(d0, off, mz);
    std::vector<double> lam0(mz);
    std::vector<double> u0c2(mz);
    for (std::size_t p = 0; p < mz; ++p) {
      lam0[p] = evals[p];
      const auto u = numerics::tridiagonal_eigenvector(d0, off, evals[p]);
      const double u0c = u[0] * inv_sqrt_c0;
      u0c2[p] = u0c * u0c;
    }
    for (std::size_t mode = 0; mode < modes; ++mode) {
      double carried = 0.0;
      for (std::size_t p = 0; p < mz; ++p) {
        const double lam = lam0[p] + alpha0 * g2_[mode];
        PTHERM_REQUIRE(lam > 0.0, "spectral layered: z-operator is not dissipative");
        lambda_[mode * mz + p] = lam;
        const double gain = u0c2[p] / lam;
        gain_[mode * mz + p] = gain;
        carried += gain;
      }
      tail_[mode] = transfer_[mode] - carried;
    }
  } else {
    // Rayleigh–Ritz over the bottom of S(0)'s spectrum. The whole operator
    // family is S(g^2) = S(0) + g^2 diag(alpha_j), so one tridiagonal
    // eigensolve of S(0) gives a kr-dimensional basis of its slowest modes,
    // diag(alpha) projects into that basis once, and each of the ~modes_x *
    // modes_y lateral modes then pays only a kr x kr Jacobi solve instead
    // of an O(nz^2) sweep of the full z-grid. The carried (slow, surface-
    // coupled) z-modes are exactly the ones the basis represents well; the
    // modes it misses are fast and surface-decoupled, and their response —
    // like everything else not carried — folds into the quasi-static tail,
    // which keeps the steady limit exact by construction.
    const std::size_t kr = std::min(nz, mz + 2);
    const auto lam0 = numerics::tridiagonal_smallest_eigenvalues(d0, off, kr);
    std::vector<double> basis(nz * kr);  // column-major: basis[j + nz * k]
    for (std::size_t k = 0; k < kr; ++k) {
      auto u = numerics::tridiagonal_eigenvector(d0, off, lam0[k]);
      // Modified Gram–Schmidt polish: inverse-iteration vectors are
      // orthogonal to residual tolerance only, and the Ritz projection
      // wants a clean orthonormal basis.
      for (std::size_t prev = 0; prev < k; ++prev) {
        double dot = 0.0;
        for (std::size_t j = 0; j < nz; ++j) dot += basis[j + nz * prev] * u[j];
        for (std::size_t j = 0; j < nz; ++j) u[j] -= dot * basis[j + nz * prev];
      }
      double len = 0.0;
      for (std::size_t j = 0; j < nz; ++j) len += u[j] * u[j];
      len = std::sqrt(len);
      PTHERM_REQUIRE(len > 0.0, "spectral layered: degenerate Ritz basis");
      for (std::size_t j = 0; j < nz; ++j) basis[j + nz * k] = u[j] / len;
    }
    // B = U0^T diag(alpha) U0 and the basis' top-surface row.
    std::vector<double> alpha_proj(kr * kr);
    std::vector<double> top(kr);
    for (std::size_t k = 0; k < kr; ++k) {
      top[k] = basis[0 + nz * k];
      for (std::size_t l = k; l < kr; ++l) {
        double acc = 0.0;
        for (std::size_t j = 0; j < nz; ++j) {
          acc += (k_z_[j] / cv_z_[j]) * basis[j + nz * k] * basis[j + nz * l];
        }
        alpha_proj[k * kr + l] = acc;
        alpha_proj[l * kr + k] = acc;
      }
    }
    std::vector<double> ritz(kr * kr);
    std::vector<double> vecs;
    std::vector<std::size_t> order(kr);
    for (std::size_t mode = 0; mode < modes; ++mode) {
      for (std::size_t i = 0; i < kr * kr; ++i) ritz[i] = g2_[mode] * alpha_proj[i];
      for (std::size_t k = 0; k < kr; ++k) ritz[k * kr + k] += lam0[k];
      jacobi_eigen_small(ritz, vecs, kr);
      for (std::size_t k = 0; k < kr; ++k) order[k] = k;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return ritz[a * kr + a] < ritz[b * kr + b];
      });
      double carried = 0.0;
      for (std::size_t p = 0; p < mz; ++p) {
        const std::size_t col = order[p];
        const double lam = ritz[col * kr + col];
        PTHERM_REQUIRE(lam > 0.0, "spectral layered: z-operator is not dissipative");
        lambda_[mode * mz + p] = lam;
        double u0 = 0.0;
        for (std::size_t k = 0; k < kr; ++k) u0 += top[k] * vecs[k * kr + col];
        const double u0c = u0 * inv_sqrt_c0;
        const double gain = u0c * u0c / lam;
        gain_[mode * mz + p] = gain;
        carried += gain;
      }
      tail_[mode] = transfer_[mode] - carried;
    }
  }
  transient_ready_ = true;
}

void SpectralThermalSolver::accumulate_surface_coefficients(
    const std::vector<HeatSource>& sources, std::vector<double>& coeff) const {
  PTHERM_REQUIRE(coeff.size() == static_cast<std::size_t>(mode_count()),
                 "spectral: coefficient vector size mismatch");
  std::vector<double> px(static_cast<std::size_t>(opts_.modes_x));
  std::vector<double> py(static_cast<std::size_t>(opts_.modes_y));
  CosineIntegralRows xs(opts_.modes_x, die_.width);
  CosineIntegralRows ys(opts_.modes_y, die_.height);
  for (const auto& s : sources) {
    if (!unit_flux_factors(die_, s, opts_.modes_x, opts_.modes_y, xs, ys, px.data(),
                           py.data())) {
      continue;
    }
    // Flux coefficients q_mn = power * px_m * py_n; the surface transfer
    // turns flux into rise.
    for (int n = 0; n < opts_.modes_y; ++n) {
      const double fy = s.power * py[static_cast<std::size_t>(n)];
      const std::size_t row = static_cast<std::size_t>(n) * opts_.modes_x;
      for (int m = 0; m < opts_.modes_x; ++m) {
        coeff[row + m] += transfer_[row + m] * px[static_cast<std::size_t>(m)] * fy;
      }
    }
  }
}

SpectralThermalSolver::Solution SpectralThermalSolver::solve_steady(
    const std::vector<HeatSource>& sources) const {
  Solution sol;
  sol.coeff.assign(static_cast<std::size_t>(mode_count()), 0.0);
  accumulate_surface_coefficients(sources, sol.coeff);
  return sol;
}

double SpectralThermalSolver::surface_rise(const Solution& sol, double x, double y) const {
  PTHERM_REQUIRE(sol.coeff.size() == static_cast<std::size_t>(mode_count()),
                 "spectral: solution size mismatch");
  std::vector<double> cosx(static_cast<std::size_t>(opts_.modes_x));
  for (int m = 0; m < opts_.modes_x; ++m) cosx[m] = std::cos(m * kPi * x / die_.width);
  double total = 0.0;
  for (int n = 0; n < opts_.modes_y; ++n) {
    const std::size_t row = static_cast<std::size_t>(n) * opts_.modes_x;
    double inner = 0.0;
    for (int m = 0; m < opts_.modes_x; ++m) inner += sol.coeff[row + m] * cosx[m];
    total += inner * std::cos(n * kPi * y / die_.height);
  }
  return total;
}

double SpectralThermalSolver::rise_at_depth(const Solution& sol, double x, double y,
                                            double z) const {
  PTHERM_REQUIRE(sol.coeff.size() == static_cast<std::size_t>(mode_count()),
                 "spectral: solution size mismatch");
  const double t = layered_ ? stack_->total_thickness() : die_.thickness;
  PTHERM_REQUIRE(z >= 0.0 && z <= t, "spectral: depth outside the die");
  std::vector<double> cosx(static_cast<std::size_t>(opts_.modes_x));
  for (int m = 0; m < opts_.modes_x; ++m) cosx[m] = std::cos(m * kPi * x / die_.width);
  double total = 0.0;
  for (int n = 0; n < opts_.modes_y; ++n) {
    const double gy = n * kPi / die_.height;
    const std::size_t row = static_cast<std::size_t>(n) * opts_.modes_x;
    double inner = 0.0;
    for (int m = 0; m < opts_.modes_x; ++m) {
      const double g = std::hypot(m * kPi / die_.width, gy);
      const double profile =
          layered_ ? layered_depth_ratio(g, z) : steady_depth_profile(g, t, z);
      inner += sol.coeff[row + m] * profile * cosx[m];
    }
    total += inner * std::cos(gy * y);
  }
  return total;
}

std::vector<double> SpectralThermalSolver::surface_map(const Solution& sol, int nx,
                                                       int ny) const {
  PTHERM_REQUIRE(sol.coeff.size() == static_cast<std::size_t>(mode_count()),
                 "spectral: solution size mismatch");
  PTHERM_REQUIRE(nx >= 2 && ny >= 2, "surface_map: need at least a 2x2 grid");
  std::vector<double> map(static_cast<std::size_t>(nx) * ny);
  if (numerics::is_power_of_two(static_cast<std::size_t>(nx)) &&
      numerics::is_power_of_two(static_cast<std::size_t>(ny))) {
    // DCT synthesis: fold + DCT-III along x per coefficient row, then along y
    // per output column. modes_y + nx one-dimensional transforms in total.
    numerics::Matrix stage(static_cast<std::size_t>(opts_.modes_y),
                           static_cast<std::size_t>(nx));
    for (int n = 0; n < opts_.modes_y; ++n) {
      const std::span<const double> row(sol.coeff.data() +
                                            static_cast<std::size_t>(n) * opts_.modes_x,
                                        static_cast<std::size_t>(opts_.modes_x));
      const auto vals = numerics::dct3(numerics::fold_cosine_modes(row, nx));
      ++fft_calls_;
      for (int i = 0; i < nx; ++i) stage(n, i) = vals[static_cast<std::size_t>(i)];
    }
    std::vector<double> column(static_cast<std::size_t>(opts_.modes_y));
    for (int i = 0; i < nx; ++i) {
      for (int n = 0; n < opts_.modes_y; ++n) column[static_cast<std::size_t>(n)] = stage(n, i);
      const auto vals = numerics::dct3(numerics::fold_cosine_modes(column, ny));
      ++fft_calls_;
      for (int j = 0; j < ny; ++j) map[static_cast<std::size_t>(j) * nx + i] = vals[j];
    }
    return map;
  }
  // Direct separable synthesis for grids the radix-2 DCT cannot take.
  numerics::Matrix stage(static_cast<std::size_t>(opts_.modes_y), static_cast<std::size_t>(nx));
  for (int i = 0; i < nx; ++i) {
    const double x = die_.width * (i + 0.5) / nx;
    for (int n = 0; n < opts_.modes_y; ++n) {
      const std::size_t row = static_cast<std::size_t>(n) * opts_.modes_x;
      double inner = 0.0;
      for (int m = 0; m < opts_.modes_x; ++m) {
        inner += sol.coeff[row + m] * std::cos(m * kPi * x / die_.width);
      }
      stage(n, i) = inner;
    }
  }
  for (int j = 0; j < ny; ++j) {
    const double y = die_.height * (j + 0.5) / ny;
    for (int i = 0; i < nx; ++i) {
      double total = 0.0;
      for (int n = 0; n < opts_.modes_y; ++n) {
        total += stage(n, i) * std::cos(n * kPi * y / die_.height);
      }
      map[static_cast<std::size_t>(j) * nx + i] = total;
    }
  }
  return map;
}

// ---------------------------------------------------------- matrix-free apply

SpectralThermalSolver::InfluenceProjection SpectralThermalSolver::make_influence_projection(
    std::span<const HeatSource> sources, std::span<const SurfaceSample> samples) const {
  const std::size_t n = sources.size();
  PTHERM_REQUIRE(n > 0, "influence: no sources");
  PTHERM_REQUIRE(samples.size() == n, "influence: need one sample per source");
  const std::size_t mx = static_cast<std::size_t>(opts_.modes_x);
  const std::size_t my = static_cast<std::size_t>(opts_.modes_y);
  InfluenceProjection proj;
  proj.count = n;
  proj.proj_x.resize(n * mx);
  proj.proj_y.resize(n * my);
  proj.cos_x.resize(n * mx);
  proj.cos_y.resize(n * my);
  proj.coeff.resize(static_cast<std::size_t>(mode_count()));
  proj.inner.resize(n);
  CosineIntegralRows xs(opts_.modes_x, die_.width);
  CosineIntegralRows ys(opts_.modes_y, die_.height);
  for (std::size_t j = 0; j < n; ++j) {
    // The shared projection core: steady clipping policy, c_m normalization
    // and per-watt flux density folded in, so source j's flux modes are
    // power_j * px_m * py_n.
    unit_flux_factors(die_, sources[j], opts_.modes_x, opts_.modes_y, xs, ys,
                      proj.proj_x.data() + j * mx, proj.proj_y.data() + j * my);
  }
  // A sample's cosine column depends only on its exact coordinate, which the
  // samples of one grid column (row) share: compute each distinct column
  // once and copy it.
  const auto fill = [&](std::vector<double>& table, std::size_t modes, double extent,
                        double SurfaceSample::*axis) {
    std::map<std::uint64_t, std::size_t> first;
    for (std::size_t p = 0; p < n; ++p) {
      const double u = samples[p].*axis;
      const auto [it, fresh] = first.try_emplace(std::bit_cast<std::uint64_t>(u), p);
      for (std::size_t m = 0; m < modes; ++m) {
        table[m * n + p] = fresh ? std::cos(static_cast<double>(m) * kPi * u / extent)
                                 : table[m * n + it->second];
      }
    }
  };
  fill(proj.cos_x, mx, die_.width, &SurfaceSample::x);
  fill(proj.cos_y, my, die_.height, &SurfaceSample::y);
  return proj;
}

void SpectralThermalSolver::apply_influence(InfluenceProjection& proj,
                                            std::span<const double> powers,
                                            std::span<double> rises, std::size_t count) const {
  const std::size_t n = proj.count;
  const std::size_t mx = static_cast<std::size_t>(opts_.modes_x);
  const std::size_t my = static_cast<std::size_t>(opts_.modes_y);
  const std::size_t modes = static_cast<std::size_t>(mode_count());
  PTHERM_REQUIRE(proj.proj_x.size() == n * mx && proj.proj_y.size() == n * my,
                 "apply_influence: projection belongs to a different spectral configuration");
  PTHERM_REQUIRE(powers.size() == count * n && rises.size() == count * n,
                 "apply_influence: powers/rises must have count * proj.count entries");
  if (proj.coeff.size() < count * modes) proj.coeff.resize(count * modes);

  // Each stage streams the shared geometry tables once per source / sample
  // for the whole block of vectors; within one vector the operations (and
  // their zero-skip guards) run in the same order whatever `count` is, so
  // every vector's rises match a one-vector apply bitwise.
  //
  // (1) Powers -> flux modes, a rank-1 accumulate per (source, scenario):
  // source j's px/py rows are loaded once and applied across all scenarios.
  std::fill(proj.coeff.begin(), proj.coeff.begin() + count * modes, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double* px = proj.proj_x.data() + j * mx;
    const double* py = proj.proj_y.data() + j * my;
    for (std::size_t k = 0; k < count; ++k) {
      const double power = powers[k * n + j];
      if (power == 0.0) continue;
      double* coeff = proj.coeff.data() + k * modes;
      for (std::size_t nn = 0; nn < my; ++nn) {
        const double fy = power * py[nn];
        if (fy == 0.0) continue;
        double* row = coeff + nn * mx;
        for (std::size_t m = 0; m < mx; ++m) row[m] += fy * px[m];
      }
    }
  }
  // (2) Per-mode surface transfer over the whole block.
  for (std::size_t k = 0; k < count; ++k) {
    double* coeff = proj.coeff.data() + k * modes;
    for (std::size_t mode = 0; mode < modes; ++mode) coeff[mode] *= transfer_[mode];
  }
  // (3) Cosine synthesis as a sweep over all samples at once: the tables
  // are mode-major, so each mode coefficient is added into every sample's
  // own accumulator (independent chains the compiler can vectorize, not one
  // serial dot product per sample). Each sample still sums its inner terms
  // in ascending m from 0.0 and its total in ascending nn from 0.0 — the
  // order of a per-sample dot product, bitwise.
  double* inner = proj.inner.data();
  for (std::size_t k = 0; k < count; ++k) {
    const double* coeff = proj.coeff.data() + k * modes;
    double* total = rises.data() + k * n;
    std::fill(total, total + n, 0.0);
    for (std::size_t nn = 0; nn < my; ++nn) {
      const double* row = coeff + nn * mx;
      std::fill(inner, inner + n, 0.0);
      for (std::size_t m = 0; m < mx; ++m) {
        const double c = row[m];
        const double* cx = proj.cos_x.data() + m * n;
        for (std::size_t p = 0; p < n; ++p) inner[p] += c * cx[p];
      }
      const double* cy = proj.cos_y.data() + nn * n;
      for (std::size_t p = 0; p < n; ++p) total[p] += inner[p] * cy[p];
    }
  }
}

// ------------------------------------------------------------------ transient

SpectralThermalSolver::TransientSolution SpectralThermalSolver::make_transient() const {
  if (layered_) {
    ensure_transient_modes();
  } else {
    PTHERM_REQUIRE(die_.cv_si > 0.0,
                   "spectral transient: non-positive volumetric heat capacity");
  }
  TransientSolution state;
  const std::size_t modes = static_cast<std::size_t>(mode_count());
  state.surface.coeff.assign(modes, 0.0);
  state.amps.assign(modes * static_cast<std::size_t>(opts_.modes_z), 0.0);
  state.flux.assign(modes, 0.0);
  return state;
}

void SpectralThermalSolver::refresh_projections(TransientSolution& state,
                                                const std::vector<HeatSource>& sources) const {
  const std::size_t n = sources.size();
  const std::size_t mx = static_cast<std::size_t>(opts_.modes_x);
  const std::size_t my = static_cast<std::size_t>(opts_.modes_y);
  if (state.proj_key.size() != 4 * n) {
    state.proj_key.assign(4 * n, std::numeric_limits<double>::quiet_NaN());
    state.proj_x.assign(n * mx, 0.0);
    state.proj_y.assign(n * my, 0.0);
  }
  CosineIntegralRows xs(opts_.modes_x, die_.width);
  CosineIntegralRows ys(opts_.modes_y, die_.height);
  for (std::size_t j = 0; j < n; ++j) {
    const HeatSource& s = sources[j];
    double* key = state.proj_key.data() + 4 * j;
    if (key[0] == s.cx && key[1] == s.cy && key[2] == s.w && key[3] == s.l) continue;
    key[0] = s.cx;
    key[1] = s.cy;
    key[2] = s.w;
    key[3] = s.l;
    // The shared projection core applies the steady path's clipping policy
    // and folds the c_m normalization plus the per-watt flux density into
    // the separable factors, so a step's projection is power * px_m * py_n.
    unit_flux_factors(die_, s, opts_.modes_x, opts_.modes_y, xs, ys,
                      state.proj_x.data() + j * mx, state.proj_y.data() + j * my);
  }
}

void SpectralThermalSolver::require_transient_layout(const TransientSolution& state) const {
  const std::size_t modes = static_cast<std::size_t>(mode_count());
  PTHERM_REQUIRE(state.amps.size() == modes * static_cast<std::size_t>(opts_.modes_z) &&
                     state.surface.coeff.size() == modes && state.flux.size() == modes,
                 "step_transient: state belongs to a different spectral configuration");
}

bool SpectralThermalSolver::holds_transient_sources(
    const TransientSolution& state, const std::vector<HeatSource>& sources) const {
  const std::size_t n = sources.size();
  if (state.power_key.size() != n || state.proj_key.size() != 4 * n) return false;
  for (std::size_t j = 0; j < n; ++j) {
    const HeatSource& s = sources[j];
    const double* key = state.proj_key.data() + 4 * j;
    if (key[0] != s.cx || key[1] != s.cy || key[2] != s.w || key[3] != s.l ||
        state.power_key[j] != s.power) {
      return false;
    }
  }
  return true;
}

bool SpectralThermalSolver::set_transient_sources(TransientSolution& state,
                                                  const std::vector<HeatSource>& sources) const {
  require_transient_layout(state);
  // An epoch-driven driver holding its powers re-ingests the same sources:
  // the flux modes are still valid and the pass is skipped whole.
  if (holds_transient_sources(state, sources)) return false;
  // Validate every source before touching the caches, so a rejected call
  // leaves the held flux and its keys exactly as they were.
  for (const HeatSource& s : sources) {
    PTHERM_REQUIRE(s.w > 0.0 && s.l > 0.0, "spectral: degenerate source (w, l must be > 0)");
  }
  const std::size_t mx = static_cast<std::size_t>(opts_.modes_x);
  const std::size_t my = static_cast<std::size_t>(opts_.modes_y);

  // Project the powers onto the flux modes. Geometry is cached per source,
  // so between co-simulation steps this is a scaled rank-1 accumulate per
  // source — no trigonometry.
  refresh_projections(state, sources);
  state.power_key.resize(sources.size());
  std::fill(state.flux.begin(), state.flux.end(), 0.0);
  for (std::size_t j = 0; j < sources.size(); ++j) {
    const double power = sources[j].power;
    state.power_key[j] = power;
    if (power == 0.0) continue;
    const double* px = state.proj_x.data() + j * mx;
    const double* py = state.proj_y.data() + j * my;
    for (std::size_t nn = 0; nn < my; ++nn) {
      const double fy = power * py[nn];
      if (fy == 0.0) continue;
      double* row = state.flux.data() + nn * mx;
      for (std::size_t m = 0; m < mx; ++m) row[m] += fy * px[m];
    }
  }
  ++power_updates_;
  return true;
}

void SpectralThermalSolver::advance_transient(TransientSolution& state, double h) const {
  PTHERM_REQUIRE(h > 0.0, "step_transient: h must be positive");
  require_transient_layout(state);
  const std::size_t modes = static_cast<std::size_t>(mode_count());
  const std::size_t mz = static_cast<std::size_t>(opts_.modes_z);
  ++advances_;

  // (1 + 2, layered) The modal rates live on the per-(mode, p) grid — they
  // do not separate into lateral x z factors — so the decay cache is the
  // full grid; the amplitude update and the quasi-static tail fold are the
  // same exact exponential machinery as the closed-form path below.
  if (layered_) {
    ensure_transient_modes();
    if (state.decay_h != h || state.decay.size() != modes * mz) {
      state.decay.resize(modes * mz);
      for (std::size_t i = 0; i < modes * mz; ++i) {
        state.decay[i] = decay_factor(lambda_[i], h);
      }
      state.decay_h = h;
    }
    for (std::size_t mode = 0; mode < modes; ++mode) {
      const double q = state.flux[mode];
      double* amp = state.amps.data() + mode * mz;
      const double* gain = gain_.data() + mode * mz;
      const double* decay = state.decay.data() + mode * mz;
      double sum = 0.0;
      for (std::size_t p = 0; p < mz; ++p) {
        const double d = decay[p];
        amp[p] = amp[p] * d + q * gain[p] * (1.0 - d);
        sum += amp[p];
      }
      state.surface.coeff[mode] = sum + tail_[mode] * q;
    }
    return;
  }

  // (1) Decay factors keyed by h, in separable lateral x z form: the exact
  // per-mode decay e^{-alpha (g^2 + gamma_p^2) h} is their product.
  const double alpha = die_.k_si / die_.cv_si;
  if (state.decay_h != h || state.decay_lat.size() != modes) {
    state.decay_lat.resize(modes);
    state.decay_z.resize(mz);
    for (std::size_t mode = 0; mode < modes; ++mode) {
      state.decay_lat[mode] = decay_factor(alpha * g2_[mode], h);
    }
    for (std::size_t p = 0; p < mz; ++p) state.decay_z[p] = decay_factor(alpha * gamma2_[p], h);
    state.decay_h = h;
  }

  // (2) Advance every z-eigenmode amplitude exactly and synthesize the
  // surface coefficients: the carried modes' sum plus the quasi-static tail.
  for (std::size_t mode = 0; mode < modes; ++mode) {
    const double dl = state.decay_lat[mode];
    const double q = state.flux[mode];
    double* amp = state.amps.data() + mode * mz;
    const double* gain = gain_.data() + mode * mz;
    double sum = 0.0;
    for (std::size_t p = 0; p < mz; ++p) {
      const double d = dl * state.decay_z[p];
      amp[p] = amp[p] * d + q * gain[p] * (1.0 - d);
      sum += amp[p];
    }
    state.surface.coeff[mode] = sum + tail_[mode] * q;
  }
}

int SpectralThermalSolver::step_transient(TransientSolution& state, double h,
                                          const std::vector<HeatSource>& sources) const {
  PTHERM_REQUIRE(h > 0.0, "step_transient: h must be positive");
  set_transient_sources(state, sources);
  advance_transient(state, h);
  return 1;
}

double SpectralThermalSolver::rise_at_depth(const TransientSolution& state, double x, double y,
                                            double z) const {
  PTHERM_REQUIRE(!layered_,
                 "spectral: transient rise_at_depth needs the single-die z-eigenbasis "
                 "(layered stacks: query the surface, or use the layered FDM backend)");
  const std::size_t modes = static_cast<std::size_t>(mode_count());
  const std::size_t mz = static_cast<std::size_t>(opts_.modes_z);
  PTHERM_REQUIRE(state.amps.size() == modes * mz && state.surface.coeff.size() == modes,
                 "spectral: transient state size mismatch");
  const double t = die_.thickness;
  PTHERM_REQUIRE(z >= 0.0 && z <= t, "spectral: depth outside the die");
  std::vector<double> cosz(mz);
  for (std::size_t p = 0; p < mz; ++p) cosz[p] = std::cos(std::sqrt(gamma2_[p]) * z);
  std::vector<double> cosx(static_cast<std::size_t>(opts_.modes_x));
  for (int m = 0; m < opts_.modes_x; ++m) cosx[m] = std::cos(m * kPi * x / die_.width);
  double total = 0.0;
  for (int n = 0; n < opts_.modes_y; ++n) {
    const double gy = n * kPi / die_.height;
    const std::size_t row = static_cast<std::size_t>(n) * opts_.modes_x;
    double inner = 0.0;
    for (int m = 0; m < opts_.modes_x; ++m) {
      const std::size_t mode = row + m;
      const double g = std::sqrt(g2_[mode]);
      const double* amp = state.amps.data() + mode * mz;
      const double* gain = gain_.data() + mode * mz;
      // Carried z-modes at their eigenfunction values; the quasi-static
      // remainder is the steady depth profile minus the carried modes'
      // steady share, scaled by the current flux.
      double carried = 0.0;
      double carried_steady = 0.0;
      for (std::size_t p = 0; p < mz; ++p) {
        carried += amp[p] * cosz[p];
        carried_steady += gain[p] * cosz[p];
      }
      const double tail = state.flux[mode] *
                          (transfer_[mode] * steady_depth_profile(g, t, z) - carried_steady);
      inner += (carried + tail) * cosx[m];
    }
    total += inner * std::cos(gy * y);
  }
  return total;
}

}  // namespace ptherm::thermal
