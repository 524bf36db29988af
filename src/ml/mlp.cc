#include "ml/mlp.h"

#include <cmath>

#include "common/logging.h"
#include "ml/softmax_regression.h"
#include "tensor/vector_ops.h"

namespace rain {

namespace {

// The two R-pass row kernels of HessianVectorProduct. Plain loops: the
// build's -ffp-contract=off keeps every multiply and add its own rounding.

/// y[i] += a0 * x0[i] + a1 * x1[i]: the R-backward rank-2 update.
void MulAdd2(double a0, const double* x0, double a1, const double* x1, double* y,
             size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a0 * x0[i] + a1 * x1[i];
}

/// sum_i (a[i] * x[i] + b[i] * y[i]) over four lane accumulators filled in
/// stride-4 steps, combined as (l0 + l1) + (l2 + l3), tail folded after:
/// the R-forward two-operand row reduction.
double Dot2(const double* a, const double* x, const double* b, const double* y,
            size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t j = 0; j < 4; ++j) {
      lane[j] += a[i + j] * x[i + j] + b[i + j] * y[i + j];
    }
  }
  double total = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) total += a[i] * x[i] + b[i] * y[i];
  return total;
}

}  // namespace

Mlp::Mlp(size_t num_features, size_t hidden_units, int num_classes, uint64_t seed)
    : d_(num_features),
      h_(hidden_units),
      c_(num_classes),
      theta_(hidden_units * num_features + hidden_units +
                 static_cast<size_t>(num_classes) * hidden_units +
                 static_cast<size_t>(num_classes),
             0.0) {
  RAIN_CHECK(num_classes >= 2 && hidden_units > 0);
  Rng rng(seed);
  const double s1 = std::sqrt(2.0 / static_cast<double>(d_));
  for (size_t i = 0; i < h_ * d_; ++i) theta_[OffW1() + i] = rng.Gaussian(0.0, s1);
  const double s2 = std::sqrt(2.0 / static_cast<double>(h_));
  for (size_t i = 0; i < static_cast<size_t>(c_) * h_; ++i) {
    theta_[OffW2() + i] = rng.Gaussian(0.0, s2);
  }
}

void Mlp::set_params(const Vec& theta) {
  RAIN_CHECK(theta.size() == theta_.size()) << "param size mismatch";
  theta_ = theta;
}

void Mlp::RunForward(const double* x, Forward* f) const {
  const double* w1 = theta_.data() + OffW1();
  const double* b1 = theta_.data() + OffB1();
  const double* w2 = theta_.data() + OffW2();
  const double* b2 = theta_.data() + OffB2();

  f->z1.assign(h_, 0.0);
  f->a1.assign(h_, 0.0);
  for (size_t i = 0; i < h_; ++i) {
    const double* row = w1 + i * d_;
    const double z = b1[i] + vec::simd::Dot(row, x, d_);
    f->z1[i] = z;
    f->a1[i] = z > 0.0 ? z : 0.0;
  }
  f->z2.assign(c_, 0.0);
  for (int k = 0; k < c_; ++k) {
    const double* row = w2 + static_cast<size_t>(k) * h_;
    f->z2[k] = b2[k] + vec::simd::Dot(row, f->a1.data(), h_);
  }
  f->p = f->z2;
  SoftmaxInPlace(f->p.data(), c_);
}

void Mlp::PredictProba(const double* x, double* probs) const {
  Forward f;
  RunForward(x, &f);
  for (int k = 0; k < c_; ++k) probs[k] = f.p[k];
}

double Mlp::ExampleLoss(const double* x, int y) const {
  Forward f;
  RunForward(x, &f);
  return -std::log(std::max(f.p[y], 1e-12));
}

void Mlp::Backprop(const double* x, const Forward& f, const Vec& dz2, Vec* grad,
                   Vec* dz1_out) const {
  const double* w2 = theta_.data() + OffW2();
  double* gw1 = grad->data() + OffW1();
  double* gb1 = grad->data() + OffB1();
  double* gw2 = grad->data() + OffW2();
  double* gb2 = grad->data() + OffB2();

  // W2 / b2 grads and da1 = W2^T dz2 — ELEMENTWISE MulAdd keeps each
  // element's rounding identical to the former interleaved statements.
  Vec da1(h_, 0.0);
  for (int k = 0; k < c_; ++k) {
    const double g = dz2[k];
    gb2[k] += g;
    double* grow = gw2 + static_cast<size_t>(k) * h_;
    const double* wrow = w2 + static_cast<size_t>(k) * h_;
    vec::simd::MulAdd(g, f.a1.data(), grow, h_);
    vec::simd::MulAdd(g, wrow, da1.data(), h_);
  }
  // dz1 = da1 * relu'(z1)
  Vec dz1(h_);
  for (size_t i = 0; i < h_; ++i) dz1[i] = f.z1[i] > 0.0 ? da1[i] : 0.0;
  for (size_t i = 0; i < h_; ++i) {
    const double g = dz1[i];
    gb1[i] += g;
    if (g == 0.0) continue;
    double* grow = gw1 + i * d_;
    vec::simd::MulAdd(g, x, grow, d_);
  }
  if (dz1_out != nullptr) *dz1_out = std::move(dz1);
}

void Mlp::AddExampleLossGradient(const double* x, int y, Vec* grad) const {
  AddExampleLossAndGradient(x, y, grad);
}

double Mlp::AddExampleLossAndGradient(const double* x, int y, Vec* grad) const {
  Forward f;
  RunForward(x, &f);
  Vec dz2 = f.p;
  dz2[y] -= 1.0;
  Backprop(x, f, dz2, grad);
  return -std::log(std::max(f.p[y], 1e-12));
}

void Mlp::AddProbaGradient(const double* x, const Vec& class_weights,
                           Vec* grad) const {
  RAIN_CHECK(static_cast<int>(class_weights.size()) == c_);
  Forward f;
  RunForward(x, &f);
  // dz2 = softmax Jacobian applied to w: p .* (w - w.p)
  double wp = 0.0;
  for (int k = 0; k < c_; ++k) wp += class_weights[k] * f.p[k];
  Vec dz2(c_);
  for (int k = 0; k < c_; ++k) dz2[k] = f.p[k] * (class_weights[k] - wp);
  Backprop(x, f, dz2, grad);
}

void Mlp::HessianVectorProduct(const Dataset& data, const Vec& v, double l2,
                               Vec* out) const {
  RAIN_CHECK(v.size() == theta_.size()) << "HVP size mismatch";
  RAIN_CHECK(data.num_active() > 0) << "HVP over empty dataset";
  out->assign(theta_.size(), 0.0);

  const double* w2 = theta_.data() + OffW2();
  const double* v_w1 = v.data() + OffW1();
  const double* v_b1 = v.data() + OffB1();
  const double* v_w2 = v.data() + OffW2();
  const double* v_b2 = v.data() + OffB2();

  const double* w1 = theta_.data() + OffW1();
  const double* b1 = theta_.data() + OffB1();
  const double* b2 = theta_.data() + OffB2();

  vec::ParallelAccumulate(
      RowParallelism(data.size()), data.size(), out,
      [&](size_t begin, size_t end, Vec* acc) {
        // Runs of consecutive active rows batch the three per-row matrix
        // projections — z1 = X W1^T, R{z1} = X V1^T and z2 = A1 W2^T —
        // into GemmNT calls over the run (the tensor layer's batched
        // projection kernel). Every GemmNT element is the Dot kernel with
        // the operand order commuted (per-element products are
        // rounding-identical), and the bias adds happen afterwards in the
        // same position, so each row's forward/R-forward values are
        // bitwise what RunForward and the former per-row loops produced.
        constexpr size_t kHvpRows = 16;
        const size_t cc = static_cast<size_t>(c_);
        std::vector<double> z1_blk(kHvpRows * h_);
        std::vector<double> rz1_blk(kHvpRows * h_);
        std::vector<double> a1_blk(kHvpRows * h_);
        std::vector<double> ra1_blk(kHvpRows * h_);
        std::vector<double> z2_blk(kHvpRows * cc);
        Vec p(cc), rz2(cc), dz2(cc), rdz2(cc), rda1(h_);
        size_t n = begin;
        while (n < end) {
          if (!data.active(n)) {
            ++n;
            continue;
          }
          size_t r1 = n;
          while (r1 < end && r1 - n < kHvpRows && data.active(r1)) ++r1;
          const size_t nb = r1 - n;
          const double* xb = data.row(n);

          // --- Batched forward + R-forward projections. ---
          vec::simd::GemmNT(xb, nb, d_, w1, h_, d_, d_, z1_blk.data(), h_);
          vec::simd::GemmNT(xb, nb, d_, v_w1, h_, d_, d_, rz1_blk.data(), h_);
          for (size_t r = 0; r < nb; ++r) {
            double* z1 = z1_blk.data() + r * h_;
            double* a1 = a1_blk.data() + r * h_;
            double* rz1 = rz1_blk.data() + r * h_;
            double* ra1 = ra1_blk.data() + r * h_;
            for (size_t i = 0; i < h_; ++i) {
              z1[i] = b1[i] + z1[i];
              a1[i] = z1[i] > 0.0 ? z1[i] : 0.0;
              rz1[i] = v_b1[i] + rz1[i];
              ra1[i] = z1[i] > 0.0 ? rz1[i] : 0.0;
            }
          }
          vec::simd::GemmNT(a1_blk.data(), nb, h_, w2, cc, h_, h_,
                            z2_blk.data(), cc);

          for (size_t r = 0; r < nb; ++r) {
            const double* x = xb + r * d_;
            const int y = data.label(n + r);
            const double* z1 = z1_blk.data() + r * h_;
            const double* a1 = a1_blk.data() + r * h_;
            const double* ra1 = ra1_blk.data() + r * h_;
            for (size_t k = 0; k < cc; ++k) p[k] = b2[k] + z2_blk[r * cc + k];
            SoftmaxInPlace(p.data(), c_);
            // R{z2} keeps the per-row Dot2 kernel (two-operand reduction,
            // no GEMM shape).
            for (int k = 0; k < c_; ++k) {
              const double* vrow = v_w2 + static_cast<size_t>(k) * h_;
              const double* wrow = w2 + static_cast<size_t>(k) * h_;
              rz2[k] = v_b2[k] + Dot2(vrow, a1, wrow, ra1, h_);
            }

            // dz2 = p - e_y; R{dz2} = R{p} = (diag(p) - p p^T) rz2.
            for (size_t k = 0; k < cc; ++k) dz2[k] = p[k];
            dz2[y] -= 1.0;
            double prz = 0.0;
            for (int k = 0; k < c_; ++k) prz += p[k] * rz2[k];
            for (int k = 0; k < c_; ++k) rdz2[k] = p[k] * (rz2[k] - prz);

            // --- R-backward pass. ---
            // RdW2 = rdz2 (x) a1 + dz2 (x) ra1; Rdb2 = rdz2.
            double* o_w1 = acc->data() + OffW1();
            double* o_b1 = acc->data() + OffB1();
            double* o_w2 = acc->data() + OffW2();
            double* o_b2 = acc->data() + OffB2();

            rda1.assign(h_, 0.0);  // R{da1} = W2^T rdz2 + V2^T dz2
            for (int k = 0; k < c_; ++k) {
              o_b2[k] += rdz2[k];
              double* orow = o_w2 + static_cast<size_t>(k) * h_;
              const double* wrow = w2 + static_cast<size_t>(k) * h_;
              const double* vrow = v_w2 + static_cast<size_t>(k) * h_;
              MulAdd2(rdz2[k], a1, dz2[k], ra1, orow, h_);
              MulAdd2(rdz2[k], wrow, dz2[k], vrow, rda1.data(), h_);
            }
            // R{dz1} = R{da1} .* relu'(z1); relu'' = 0 a.e.
            for (size_t i = 0; i < h_; ++i) {
              const double rg = z1[i] > 0.0 ? rda1[i] : 0.0;
              o_b1[i] += rg;
              if (rg == 0.0) continue;
              double* orow = o_w1 + i * d_;
              vec::simd::MulAdd(rg, x, orow, d_);
            }
          }
          n = r1;
        }
        return 0.0;
      });
  const double inv_n = 1.0 / static_cast<double>(data.num_active());
  for (double& o : *out) o *= inv_n;
  vec::Axpy(2.0 * l2, v, out);
}

}  // namespace rain
