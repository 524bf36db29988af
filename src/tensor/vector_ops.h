#ifndef RAIN_TENSOR_VECTOR_OPS_H_
#define RAIN_TENSOR_VECTOR_OPS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace rain {

/// Dense double vector. All training, influence-function and relaxation
/// math in Rain operates on these (model parameters, gradients, HVPs).
using Vec = std::vector<double>;

/// BLAS-1 style kernels. All require matching sizes (checked).
///
/// The arithmetic kernels run sequentially. ParallelAccumulate is the one
/// parallel primitive here: row-parallel work (gradients, HVPs) reduces
/// through it in chunks derived from the `parallelism` knob, so results
/// are a pure function of the knob.
namespace vec {

/// \brief Runtime-dispatched SIMD backend for the innermost range
/// kernels behind the models (Dot/Axpy, the GEMV/GEMM-NT projections and
/// the coefficient passes).
///
/// Three tiers, selected once per process from CPUID:
///   * `avx512`  — 512-bit AVX-512F/DQ/VL variants. The wider registers
///     carry the SAME lane-accumulator chains as the avx2-fma tier (a
///     512-bit accumulator is exactly the avx2 tier's two 256-bit
///     accumulators side by side), so every kernel is bitwise identical
///     to the avx2-fma tier — upgrading a host never changes results.
///   * `avx2-fma` — 256-bit AVX2+FMA variants.
///   * `scalar`  — plain loops; bit-compatible with the SIMD tiers for
///     the ELEMENTWISE class below.
///
/// The `RAIN_SIMD` environment variable (`avx512|avx2|scalar`) caps the
/// tier, e.g. `RAIN_SIMD=avx2` forces the avx2-fma kernels on an AVX-512
/// host and `RAIN_SIMD=scalar` forces the fallbacks everywhere. A
/// requested tier the CPU cannot run clamps down to the best supported
/// one (with a one-time stderr note), so CI can force `avx2` on
/// heterogeneous runners. The backend is a per-process constant, so the
/// deterministic-chunk contract is untouched: results remain a pure
/// function of (inputs, parallelism knob, backend).
///
/// Determinism taxonomy — each dispatched kernel documents its class:
///  * ELEMENTWISE (MulAdd):
///    every output element is computed with the exact rounding sequence
///    of the scalar loop (separate multiply and add roundings, no fusion,
///    no cross-lane ops), so every tier is bitwise identical. These carry
///    the per-row multiply-add accumulations in src/ml, whose addends
///    must not depend on the tier.
///  * FUSED-ELEMENTWISE (Axpy): one fused rounding per element on the
///    SIMD tiers, two roundings on scalar — scalar differs at rounding
///    level but within a tier an element's bits never depend on where in
///    the range it falls (vector body or tail), and avx512 == avx2-fma.
///  * REDUCTION (Dot, Gemv, GemmNT): the SIMD lane accumulators combine
///    in a fixed shape — (l0+l1)+(l2+l3), scalar tail folded after — that
///    depends only on n, never on alignment or scheduling. Deterministic
///    per tier and bitwise identical between avx512 and avx2-fma; the
///    scalar left-fold differs at rounding level (the same latitude
///    chunked reductions already have across knob values).
///
/// The relax-layer kernels behind the RelaxedPoly sweeps (Mul, GatherSum,
/// GatherProd, GatherProdOneMinus, GatherDot, Gather, ScatterAxpy,
/// PrefixSuffixProducts) are not dispatched: each has one scalar body, so
/// their bits cannot depend on the backend.
namespace simd {
/// "avx512", "avx2-fma" or "scalar" — whatever dispatch (plus any
/// RAIN_SIMD / ForceBackend override) selects right now.
const char* Backend();

/// \brief Test/bench hook: cap the dispatch at the named tier
/// (`"avx512"`, `"avx2"`, `"scalar"`), or clear the cap with `nullptr`
/// or `""`. `ForceBackend("scalar")` forces the scalar fallbacks
/// regardless of CPU support.
///
/// Returns true when the active backend now equals the request (i.e. the
/// CPU supports it); false when the request was clamped to a lower tier
/// or the name was not recognized (the cap is cleared in that case).
/// Not intended for concurrent flipping while kernels run (tests toggle
/// it around call sites).
bool ForceBackend(const char* tier);

/// Re-reads the RAIN_SIMD environment variable (normally read once,
/// lazily). Exists so tests can exercise the env round-trip in-process.
void ReloadBackendEnv();

/// REDUCTION: returns dot(x, y) over n elements.
double Dot(const double* x, const double* y, size_t n);

/// FUSED-ELEMENTWISE: y[i] += alpha * x[i] (single fused rounding per
/// element on the SIMD tiers).
void Axpy(double alpha, const double* x, double* y, size_t n);

/// ELEMENTWISE: y[i] += alpha * x[i] with separate multiply and add
/// roundings — bitwise identical across backends. Use for accumulation
/// passes whose per-row addends must replay exactly (gradients, HVP
/// coefficient applies, chunk partials that are later reduced in order).
void MulAdd(double alpha, const double* x, double* y, size_t n);

/// REDUCTION (GEMV): out[r] = dot(a_row_r, x) for r in [0, rows); `a` is
/// row-major rows x cols. Row values are pure functions of (row, x), so
/// any row partitioning is bitwise-invariant.
void Gemv(const double* a, size_t rows, size_t cols, const double* x, double* out);

/// \brief REDUCTION (GEMM-NT): out[i*ldo + j] = dot(a_i, b_j) where a_i
/// is row i of `a` (m rows, stride lda) and b_j is row j of `b` (n rows,
/// stride ldb), both of length k.
///
/// Every output element is computed by the Dot kernel — same fixed lane
/// shape — so the result is bitwise identical to the per-row Dot loops
/// it replaces, at any tile size. The loops are tiled over b-rows so a
/// block of b stays cache-resident while the a-rows stream: this is the
/// batched projection kernel behind the blocked model HVPs (a = example
/// rows, b = weight rows).
void GemmNT(const double* a, size_t m, size_t lda, const double* b, size_t n,
            size_t ldb, size_t k, double* out, size_t ldo);

// Relax-layer kernels (one scalar body each, not dispatched). The
// reductions fill four virtual lane accumulators in stride-4 steps,
// combine them as (l0+l1)+(l2+l3) (resp. products) and fold the tail
// afterwards, so a value depends only on the element sequence.

/// Returns sum_i v[idx[i]] (four-lane shape).
double GatherSum(const double* v, const int32_t* idx, size_t n);
/// Returns prod_i v[idx[i]] (four-lane shape).
double GatherProd(const double* v, const int32_t* idx, size_t n);
/// Returns prod_i (1 - v[idx[i]]) (four-lane shape).
double GatherProdOneMinus(const double* v, const int32_t* idx, size_t n);

/// Returns sum_i v[idx[i]] * w[i], each term rounded separately (multiply
/// then lane add, no fusion), four-lane shape. This is the batched
/// adjoint gather: v = adjoints, idx = CSR parent list, w = edge weights.
double GatherDot(const double* v, const int32_t* idx, const double* w, size_t n);

/// out[i] = v[idx[i]].
void Gather(const double* v, const int32_t* idx, double* out, size_t n);

/// out[i] = a[i] * b[i]. Used by the reverse-sweep edge-weight builder to
/// fuse prefix and suffix product arrays.
void Mul(const double* a, const double* b, double* out, size_t n);

/// \brief y[idx[i]] += alpha * x[i] with separate multiply and add
/// roundings, applied in ascending i order.
///
/// Duplicate indices accumulate in order, so the result is a pure
/// function of the argument arrays. Used for the reverse-sweep
/// variable-grad writeback.
void ScatterAxpy(double alpha, const double* x, const int32_t* idx, double* y,
                 size_t n);

/// \brief Prefix/suffix running products: prefix[0] = 1, prefix[j+1] =
/// prefix[j] * c[j]; suffix[k] = 1, suffix[j] = suffix[j+1] * c[j].
/// `prefix` and `suffix` must hold k+1 doubles.
///
/// Combine with Mul to produce the leave-one-out products
/// d(prod)/d(c_j) = prefix[j] * suffix[j+1] the reverse sweep uses for
/// MUL/OR nodes.
void PrefixSuffixProducts(const double* c, size_t k, double* prefix,
                          double* suffix);
}  // namespace simd

/// out = 0 vector of length n.
Vec Zeros(size_t n);

/// dot(x, y)
double Dot(const Vec& x, const Vec& y);

/// y += alpha * x
void Axpy(double alpha, const Vec& x, Vec* y);

/// x *= alpha
void Scale(double alpha, Vec* x);

/// Euclidean norm.
double Norm2(const Vec& x);

/// Squared Euclidean norm.
double NormSq(const Vec& x);

/// Infinity norm: the largest absolute element (0 for an empty vector).
double InfNorm(const Vec& x);

/// Cache-line size the parallel reductions pad their per-chunk buffers to.
inline constexpr size_t kCacheLineBytes = 64;

/// \brief Deterministic parallel accumulation: splits [0, n) into
/// min(parallelism, n) chunks, hands each chunk a zeroed buffer of
/// out->size() via body(begin, end, acc), then adds the buffers into *out in
/// chunk order. With parallelism <= 1 the body writes straight into *out —
/// bitwise identical to the pre-parallel sequential loops. This is the
/// reduction primitive behind every parallel gradient / HVP in src/ml.
///
/// The body also returns a scalar partial (a chunk's loss; bodies with
/// nothing to sum return 0). The partials are added in chunk order and the
/// sum is returned.
///
/// The chunk buffers are cache-line-private: the acc->data() ranges of any
/// two chunks are at least kCacheLineBytes apart. Bodies must not resize
/// `acc`.
double ParallelAccumulate(
    int parallelism, size_t n, Vec* out,
    const std::function<double(size_t begin, size_t end, Vec* acc)>& body);

/// out = x - y
Vec Sub(const Vec& x, const Vec& y);

/// out = x + y
Vec Add(const Vec& x, const Vec& y);

/// Element-wise maximum absolute difference.
double MaxAbsDiff(const Vec& x, const Vec& y);

}  // namespace vec

}  // namespace rain

#endif  // RAIN_TENSOR_VECTOR_OPS_H_
