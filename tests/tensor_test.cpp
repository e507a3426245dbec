#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "col2im_naive.hpp"
#include "matmul_naive.hpp"
#include "tensor/ops.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"
#include "util/alloc_check.hpp"
#include "util/thread_pool.hpp"

namespace dcsr {
namespace {

TEST(Shape, HoldsUpToMaxRankAndThrowsBeyond) {
  const Shape s{1, 2, 3, 4, 5, 6, 7, 8};  // exactly kMaxRank
  EXPECT_EQ(s.rank(), 8u);
  EXPECT_EQ(s[7], 8);
  EXPECT_THROW(Shape({1, 2, 3, 4, 5, 6, 7, 8, 9}), std::invalid_argument);
}

TEST(Shape, ComparesAgainstShapesAndVectors) {
  const Shape a{2, 3, 4};
  EXPECT_EQ(a, Shape({2, 3, 4}));
  EXPECT_NE(a, Shape({2, 3}));
  EXPECT_NE(a, Shape({2, 3, 5}));
  // A vector's dims compare as a range: Shape has no vector overloads.
  EXPECT_TRUE(std::ranges::equal(a, std::vector<int>({2, 3, 4})));
  EXPECT_FALSE(std::ranges::equal(a, std::vector<int>({2, 3})));
  EXPECT_EQ(Shape{}, Shape{});
  EXPECT_TRUE(Shape{}.empty());
}

TEST(Shape, StreamsAndFormatsForDiagnostics) {
  std::ostringstream os;
  os << Shape{1, 16, 24, 32};
  EXPECT_EQ(os.str(), "1x16x24x32");
  EXPECT_EQ(Shape({1, 16, 24, 32}).str(), "1x16x24x32");
  EXPECT_EQ(Shape{}.str(), "<scalar>");
}

TEST(Tensor, ConstructedZeroInitialised) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, RejectsNonPositiveDims) {
  EXPECT_THROW(Tensor({2, 0}), std::invalid_argument);
  EXPECT_THROW(Tensor({-1, 3}), std::invalid_argument);
}

TEST(Tensor, RejectsRankAboveMaxRank) {
  // A Tensor's shape is a Shape, so the rank cap holds for every way of
  // building one — there is no vector path that skips it.
  EXPECT_THROW(Tensor({1, 1, 1, 1, 1, 1, 1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(Tensor::zeros({1, 1, 1, 1, 1, 1, 1, 1, 1}), std::invalid_argument);
  const Tensor t({1, 1, 1, 1, 1, 1, 1, 1});  // exactly kMaxRank
  EXPECT_EQ(t.rank(), static_cast<std::size_t>(Shape::kMaxRank));
  EXPECT_THROW((void)t.reshaped({1, 1, 1, 1, 1, 1, 1, 1, 1}), std::invalid_argument);
}

TEST(Tensor, FullFillsValue) {
  const Tensor t = Tensor::full({4}, 2.5f);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, At4dRowMajorLayout) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 7.0f;
  // Index = ((1*3 + 2)*4 + 3)*5 + 4 = 119.
  EXPECT_EQ(t[119], 7.0f);
}

TEST(Tensor, ReshapedPreservesData) {
  Tensor t({2, 6});
  t.at(1, 5) = 3.0f;
  const Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.at(2, 3), 3.0f);
  EXPECT_THROW(t.reshaped({5, 5}), std::invalid_argument);
}

TEST(Tensor, AddAndAxpy) {
  Tensor a = Tensor::full({3}, 1.0f);
  const Tensor b = Tensor::full({3}, 2.0f);
  a.add_(b);
  EXPECT_EQ(a[0], 3.0f);
  a.axpy_(-2.0f, b);
  EXPECT_EQ(a[1], -1.0f);
  EXPECT_THROW(a.add_(Tensor({4})), std::invalid_argument);
}

TEST(Tensor, RandnStddevScales) {
  Rng rng(3);
  const Tensor t = Tensor::randn({10000}, rng, 0.5f);
  double s2 = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) s2 += t[i] * t[i];
  EXPECT_NEAR(s2 / static_cast<double>(t.size()), 0.25, 0.02);
}

TEST(Ops, MatmulAgainstHandComputed) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  for (int i = 0; i < 6; ++i) a[static_cast<std::size_t>(i)] = static_cast<float>(i + 1);
  for (int i = 0; i < 6; ++i) b[static_cast<std::size_t>(i)] = static_cast<float>(i + 7);
  Tensor c;
  matmul_into(a, b, c);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(Ops, MatmulShapeMismatchThrows) {
  Tensor out;
  EXPECT_THROW(matmul_into(Tensor({2, 3}), Tensor({2, 3}), out),
               std::invalid_argument);
  EXPECT_THROW(matmul_tn_into(Tensor({2, 3}), Tensor({3, 2}), out),
               std::invalid_argument);
}

// Property test: the blocked kernels against the scalar references across
// non-square shapes, tile remainders, and degenerate 1xN / Nx1 extents.
TEST(Ops, BlockedKernelsMatchNaiveReferences) {
  Rng rng(71);
  const int shapes[][3] = {{1, 1, 1},  {1, 8, 5},    {7, 1, 9},
                           {5, 9, 1},  {1, 64, 1},   {33, 17, 65},
                           {64, 64, 64}, {129, 31, 257}, {6, 300, 16},
                           {8, 72, 100}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    SCOPED_TRACE(testing::Message() << "m=" << m << " k=" << k << " n=" << n);

    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    Tensor c;
    matmul_into(a, b, c);
    const Tensor c_ref = matmul_naive(a, b);
    ASSERT_TRUE(c.same_shape(c_ref));
    // NN and TN keep the naive per-element summation order: bit-identical.
    for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], c_ref[i]);

    const Tensor at = Tensor::randn({k, m}, rng);
    Tensor ct;
    matmul_tn_into(at, b, ct);
    const Tensor ct_ref = matmul_tn_naive(at, b);
    ASSERT_TRUE(ct.same_shape(ct_ref));
    for (std::size_t i = 0; i < ct.size(); ++i) EXPECT_EQ(ct[i], ct_ref[i]);

    const Tensor bt = Tensor::randn({n, k}, rng);
    Tensor cn;
    matmul_nt_into(a, bt, cn);
    const Tensor cn_ref = matmul_nt_naive(a, bt);
    ASSERT_TRUE(cn.same_shape(cn_ref));
    // NT reduces dot products over lanes — deterministic, but the order
    // differs from the scalar reference, so compare with a tolerance.
    for (std::size_t i = 0; i < cn.size(); ++i)
      EXPECT_NEAR(cn[i], cn_ref[i], 1e-3f * (1.0f + std::abs(cn_ref[i])));
  }
}

TEST(Ops, MatmulResultsInvariantToThreadCount) {
  const int saved = default_thread_count();
  Rng rng(73);
  const Tensor a = Tensor::randn({70, 50}, rng);
  const Tensor b = Tensor::randn({50, 90}, rng);
  const Tensor bt = Tensor::randn({90, 50}, rng);

  Tensor c1, c4, n1, n4;
  set_default_pool_threads(1);
  matmul_into(a, b, c1);
  matmul_nt_into(a, bt, n1);
  set_default_pool_threads(4);
  matmul_into(a, b, c4);
  matmul_nt_into(a, bt, n4);
  set_default_pool_threads(saved);

  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_EQ(c1[i], c4[i]);
  for (std::size_t i = 0; i < n1.size(); ++i) EXPECT_EQ(n1[i], n4[i]);
}

TEST(Ops, MatmulRejectsEmptyTensors) {
  // Tensor refuses zero extents outright, so no kernel ever sees an empty
  // operand — the degenerate "0-sized matmul" boundary is unrepresentable.
  EXPECT_THROW(Tensor({0, 3}), std::invalid_argument);
  EXPECT_THROW(Tensor({3, 0}), std::invalid_argument);
  // A default-constructed tensor is rank-0, which the kernels reject as not
  // 2-D.
  Tensor out;
  EXPECT_THROW(matmul_into(Tensor(), Tensor({1, 1}), out),
               std::invalid_argument);
  EXPECT_THROW(matmul_nt_into(Tensor({1, 1}), Tensor(), out),
               std::invalid_argument);
}

TEST(Ops, TransposedVariantsMatchExplicitTranspose) {
  Rng rng(17);
  const Tensor a = Tensor::randn({4, 3}, rng);
  const Tensor b = Tensor::randn({4, 5}, rng);
  const Tensor expected = matmul_tn_naive(a, b);
  Tensor got;
  matmul_tn_into(a, b, got);
  ASSERT_TRUE(expected.same_shape(got));
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(expected[i], got[i], 1e-5f);

  const Tensor c = Tensor::randn({3, 4}, rng);
  const Tensor d = Tensor::randn({5, 4}, rng);
  const Tensor e1 = matmul_nt_naive(c, d);
  Tensor e2;
  matmul_nt_into(c, d, e2);
  ASSERT_TRUE(e1.same_shape(e2));
  for (std::size_t i = 0; i < e1.size(); ++i) EXPECT_NEAR(e1[i], e2[i], 1e-5f);
}

TEST(Ops, ConvOutSize) {
  EXPECT_EQ(conv_out_size(8, 3, 1, 1), 8);   // same padding
  EXPECT_EQ(conv_out_size(8, 3, 2, 1), 4);   // strided
  EXPECT_EQ(conv_out_size(7, 3, 1, 0), 5);   // valid
}

TEST(Ops, Im2colIdentityKernel) {
  // With a 1x1 kernel, im2col is just a channel-major flatten.
  Tensor x({1, 2, 2, 2});
  for (int i = 0; i < 8; ++i) x[static_cast<std::size_t>(i)] = static_cast<float>(i);
  Tensor cols({2, 4});
  im2col_into(x, 0, 1, 1, 0, cols);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(cols[static_cast<std::size_t>(i)], static_cast<float>(i));
}

TEST(Ops, Im2colZeroPadsBorders) {
  Tensor x = Tensor::full({1, 1, 2, 2}, 1.0f);
  Tensor cols({9, 4});
  im2col_into(x, 0, 3, 1, 1, cols);
  // Centre tap of the first output position sees pixel (0,0) = 1; the
  // top-left tap is padding = 0.
  EXPECT_EQ(cols.at(4, 0), 1.0f);
  EXPECT_EQ(cols.at(0, 0), 0.0f);
}

TEST(Ops, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im_add(y)> — the defining adjoint property,
  // checked with random tensors.
  Rng rng(23);
  const Tensor x = Tensor::randn({1, 3, 6, 6}, rng);
  const int k = 3, stride = 2, pad = 1;
  Tensor cols({3 * k * k, 3 * 3});
  im2col_into(x, 0, k, stride, pad, cols);
  const Tensor y = Tensor::randn(cols.shape(), rng);
  Tensor back({1, 3, 6, 6});
  col2im_add(y, back, 0, k, stride, pad);

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i) lhs += cols[i] * y[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Ops, Col2imMatchesNaiveBitwise) {
  // The row-wise col2im_add adds in the per-element scatter's
  // (c, ky, kx, y, x) order, so every output element must come out with the
  // same bits — the adjoint test above only checks to 1e-3, which a changed
  // summation order would pass. Item n = 1 of a 3-item batch, H != W, and a
  // non-zero `out` to accumulate into; items 0 and 2 must stay untouched.
  Rng rng(31);
  for (const int k : {1, 3, 5}) {
    for (const int stride : {1, 2}) {
      for (const int pad : {0, 1, 2}) {
        const int C = 3, H = 9, W = 7;
        const int oh = conv_out_size(H, k, stride, pad);
        const int ow = conv_out_size(W, k, stride, pad);
        if (oh <= 0 || ow <= 0) continue;
        const Tensor cols = Tensor::randn({C * k * k, oh * ow}, rng);
        const Tensor base = Tensor::randn({3, C, H, W}, rng);
        Tensor got = base;
        Tensor want = base;
        col2im_add(cols, got, 1, k, stride, pad);
        col2im_add_naive(cols, want, 1, k, stride, pad);
        ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
            << "kernel=" << k << " stride=" << stride << " pad=" << pad;
        const std::size_t item = static_cast<std::size_t>(C) * H * W;
        EXPECT_EQ(std::memcmp(got.data(), base.data(), item * sizeof(float)), 0);
        EXPECT_EQ(std::memcmp(got.data() + 2 * item, base.data() + 2 * item,
                              item * sizeof(float)),
                  0);
      }
    }
  }
}

TEST(Ops, Im2colAndCol2imRejectBadBatchIndexAndRank) {
  // Both kernels address item n through raw pointers, so an out-of-range n
  // must be rejected up front. The errors surface as std::invalid_argument
  // even inside a hot-path guard (the checked build's heap auditor would
  // otherwise turn building the message into a HotPathAllocError).
  set_alloc_check_enabled(true);
  const Tensor x = Tensor::full({2, 3, 6, 5}, 1.0f);
  Tensor grad({2, 3, 6, 5});
  Tensor cols({3 * 3 * 3, 6 * 5});
  const auto rejects = [](auto&& call) {
    try {
      HotPathGuard guard("tensor_test:Im2colAndCol2imRejectBadBatchIndexAndRank");
      call();
    } catch (const std::invalid_argument&) {
      return true;
    } catch (...) {
      return false;
    }
    return false;
  };
  for (const int n : {-1, 2, 1000}) {
    EXPECT_TRUE(rejects([&] { im2col_into(x, n, 3, 1, 1, cols); })) << n;
    EXPECT_TRUE(rejects([&] { col2im_add(cols, grad, n, 3, 1, 1); })) << n;
  }
  // Columns of the right element count but the wrong rank.
  Tensor cols_3d({3 * 3 * 3, 6, 5});
  EXPECT_TRUE(rejects([&] { col2im_add(cols_3d, grad, 0, 3, 1, 1); }));
  // Valid calls still go through, and the rejected ones wrote nothing.
  for (std::size_t i = 0; i < grad.size(); ++i) ASSERT_EQ(grad[i], 0.0f);
  im2col_into(x, 1, 3, 1, 1, cols);
  col2im_add(cols, grad, 1, 3, 1, 1);
  EXPECT_EQ(grad.at(0, 0, 0, 0), 0.0f);
  EXPECT_EQ(grad.at(1, 0, 2, 2), 9.0f);  // interior: all nine taps land
}

TEST(Ops, Conv3x3BackwardMatchesIm2colGemmBitwise) {
  // The direct backward entry points write exactly the floats of the
  // im2col + GEMM backward they replace, for any item of a batch and at any
  // thread count (they split channel blocks across the pool): dW through
  // matmul_nt_into then Tensor::add_, dX through matmul_tn_into then
  // col2im_add into a zeroed item, the bias through a serial row sum.
  // Widths off the multiple of 8 reach the kernels' row-crossing lane
  // chunks and masked tails; 16 channels at 24 x 21 make 4 blocks that
  // the pool splits in two chunks.
  const int saved_threads = default_thread_count();
  Rng rng(43);
  struct Geo {
    int c, o, h, w;
  };
  for (const Geo g : {Geo{3, 8, 7, 13}, Geo{8, 8, 6, 24}, Geo{16, 16, 24, 21},
                      Geo{5, 3, 4, 5}})
    for (const int threads : {1, 4}) {
      set_default_pool_threads(threads);
      const Tensor x = Tensor::randn({2, g.c, g.h, g.w}, rng);
      const Tensor dy = Tensor::randn({2, g.o, g.h, g.w}, rng);
      const Tensor wt = Tensor::randn({g.o, 9 * g.c}, rng);
      const Tensor dw0 = Tensor::randn({g.o, 9 * g.c}, rng);
      const Tensor db0 = Tensor::randn({g.o, 1}, rng);
      const std::size_t hw = static_cast<std::size_t>(g.h) * g.w;
      const int n = 1;
      const ConstMat go(dy.data() + n * g.o * hw, g.o, static_cast<int>(hw));

      Tensor cols({9 * g.c, static_cast<int>(hw)}), prod, dcols;
      im2col_into(x, n, 3, 1, 1, cols);
      Tensor dw_want = dw0;
      matmul_nt_into(go, cols, prod);
      dw_want.add_(prod);
      matmul_tn_into(wt, go, dcols);
      Tensor dx_want({2, g.c, g.h, g.w});
      col2im_add(dcols, dx_want, n, 3, 1, 1);
      Tensor db_want = db0;
      for (int k = 0; k < g.o; ++k) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < hw; ++i) acc += go.data[k * hw + i];
        db_want[static_cast<std::size_t>(k)] += acc;
      }

      // conv3x3_into leaves the item's zero-bordered copy in `padded`.
      Tensor padded, padded_grad, out({1, g.o, g.h, g.w});
      conv3x3_into(x, n, wt, db0.data(), false, padded, out.data());
      Tensor dw_got = dw0, db_got = db0;
      Tensor dx_got = Tensor::full({2, g.c, g.h, g.w}, 7.0f);
      conv3x3_weight_grad_add(padded, dy, n, dw_got);
      conv3x3_data_grad_into(wt, dy, n, padded_grad, dx_got);
      bias_grad_add(dy, n, db_got);
      const auto bits_equal = [](const float* a, const float* b, std::size_t k) {
        return std::memcmp(a, b, k * sizeof(float)) == 0;
      };
      const std::string where = "c=" + std::to_string(g.c) + " o=" +
                                std::to_string(g.o) + " w=" +
                                std::to_string(g.w) + " threads=" +
                                std::to_string(threads);
      EXPECT_TRUE(bits_equal(dw_got.data(), dw_want.data(), dw_want.size()))
          << "weight gradient " << where;
      EXPECT_TRUE(bits_equal(dx_got.data() + n * g.c * hw,
                             dx_want.data() + n * g.c * hw, g.c * hw))
          << "input gradient " << where;
      for (std::size_t i = 0; i < g.c * hw; ++i)  // item 0 is not written
        ASSERT_EQ(dx_got[i], 7.0f) << where;
      EXPECT_TRUE(bits_equal(db_got.data(), db_want.data(), db_want.size()))
          << "bias gradient " << where;
    }
  set_default_pool_threads(saved_threads);
}

TEST(Ops, Conv3x3BackwardRejectsMismatchedShapes) {
  // Each backward entry point checks every operand against the gradient
  // before it writes: a mismatch is a std::invalid_argument and leaves the
  // outputs as they were.
  Rng rng(44);
  const Tensor dy = Tensor::randn({2, 4, 6, 5}, rng);
  const Tensor wt = Tensor::randn({4, 9 * 3}, rng);
  Tensor padded = Tensor::randn({3, 8, 7}, rng);
  Tensor dw = Tensor::full({4, 27}, 1.0f);
  Tensor dx = Tensor::full({2, 3, 6, 5}, 1.0f);
  Tensor db = Tensor::full({4, 1}, 1.0f);
  Tensor scratch;
  const auto untouched = [](const Tensor& t) {
    for (std::size_t i = 0; i < t.size(); ++i)
      if (t[i] != 1.0f) return false;
    return true;
  };
  Tensor wrong_dw = Tensor::full({4, 26}, 1.0f);
  Tensor small_padded = Tensor::randn({3, 8, 6}, rng);
  Tensor flat_padded = Tensor::randn({3, 56}, rng);
  EXPECT_THROW(conv3x3_weight_grad_add(padded, dy, 0, wrong_dw),
               std::invalid_argument);
  EXPECT_THROW(conv3x3_weight_grad_add(small_padded, dy, 0, dw),
               std::invalid_argument);
  EXPECT_THROW(conv3x3_weight_grad_add(flat_padded, dy, 0, dw),
               std::invalid_argument);
  EXPECT_THROW(conv3x3_weight_grad_add(padded, dy, 2, dw),
               std::invalid_argument);
  EXPECT_THROW(conv3x3_weight_grad_add(padded, dy.reshaped({2, 4, 30}), 0, dw),
               std::invalid_argument);
  EXPECT_TRUE(untouched(dw));
  EXPECT_TRUE(untouched(wrong_dw));

  const Tensor wt_rows = Tensor::randn({3, 27}, rng);  // o != 4
  const Tensor wt_cols = Tensor::randn({4, 26}, rng);  // not 9 x c
  Tensor dx_chans = Tensor::full({2, 2, 6, 5}, 1.0f);
  Tensor dx_small = Tensor::full({1, 3, 6, 5}, 1.0f);
  Tensor dx_height = Tensor::full({2, 3, 5, 5}, 1.0f);
  EXPECT_THROW(conv3x3_data_grad_into(wt_rows, dy, 0, scratch, dx),
               std::invalid_argument);
  EXPECT_THROW(conv3x3_data_grad_into(wt_cols, dy, 0, scratch, dx),
               std::invalid_argument);
  EXPECT_THROW(conv3x3_data_grad_into(wt, dy, 0, scratch, dx_chans),
               std::invalid_argument);
  EXPECT_THROW(conv3x3_data_grad_into(wt, dy, 1, scratch, dx_small),
               std::invalid_argument);
  EXPECT_THROW(conv3x3_data_grad_into(wt, dy, 0, scratch, dx_height),
               std::invalid_argument);
  EXPECT_THROW(conv3x3_data_grad_into(wt, dy, -1, scratch, dx),
               std::invalid_argument);
  for (const Tensor* t : {&dx, &dx_chans, &dx_small, &dx_height})
    EXPECT_TRUE(untouched(*t));

  Tensor db_wrong = Tensor::full({3, 1}, 1.0f);
  EXPECT_THROW(bias_grad_add(dy, 0, db_wrong), std::invalid_argument);
  EXPECT_THROW(bias_grad_add(dy, 2, db), std::invalid_argument);
  EXPECT_THROW(bias_grad_add(dy.reshaped({2, 4, 30}), 0, db),
               std::invalid_argument);
  EXPECT_TRUE(untouched(db));
  EXPECT_TRUE(untouched(db_wrong));

  // The matching calls go through.
  conv3x3_weight_grad_add(padded, dy, 1, dw);
  conv3x3_data_grad_into(wt, dy, 1, scratch, dx);
  bias_grad_add(dy, 1, db);
  EXPECT_FALSE(untouched(dw));
  EXPECT_FALSE(untouched(db));
}

TEST(Ops, ConvOutSizeCheckedThrowsNamingGeometry) {
  // The happy path agrees with the unchecked helper.
  EXPECT_EQ(conv_out_size_checked(8, 3, 1, 1, "conv"), conv_out_size(8, 3, 1, 1));
  // Kernel overhangs the padded input: output extent would be <= 0.
  try {
    conv_out_size_checked(2, 5, 1, 0, "Conv2d height");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("Conv2d height"), std::string::npos) << msg;
    EXPECT_NE(msg.find("in=2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("kernel=5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("stride=1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pad=0"), std::string::npos) << msg;
  }
  EXPECT_THROW(conv_out_size_checked(8, 3, 0, 1, "s"), std::invalid_argument);
  EXPECT_THROW(conv_out_size_checked(8, 0, 1, 1, "k"), std::invalid_argument);
}

// A warm destination of the wrong shape must be reshaped in place: each
// *_into product and im2col_into must write into a stale destination what
// it writes into a fresh one.
TEST(Ops, IntoVariantsMatchAllocatingBitwise) {
  Rng rng(29);
  const Tensor a = Tensor::randn({13, 21}, rng);
  const Tensor b = Tensor::randn({21, 17}, rng);
  const Tensor at = Tensor::randn({21, 13}, rng);
  const Tensor bt = Tensor::randn({17, 21}, rng);

  Tensor out = Tensor::full({2, 2}, 9.0f);  // stale shape and contents
  matmul_into(a, b, out);
  Tensor c;
  matmul_into(a, b, c);
  ASSERT_TRUE(out.same_shape(c));
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(out[i], c[i]);

  matmul_tn_into(at, b, out);
  Tensor ct;
  matmul_tn_into(at, b, ct);
  ASSERT_TRUE(out.same_shape(ct));
  for (std::size_t i = 0; i < ct.size(); ++i) EXPECT_EQ(out[i], ct[i]);

  matmul_nt_into(a, bt, out);
  Tensor cn;
  matmul_nt_into(a, bt, cn);
  ASSERT_TRUE(out.same_shape(cn));
  for (std::size_t i = 0; i < cn.size(); ++i) EXPECT_EQ(out[i], cn[i]);

  const Tensor x = Tensor::randn({1, 3, 6, 6}, rng);
  Tensor cols({3 * 3 * 3, 6 * 6});
  im2col_into(x, 0, 3, 1, 1, cols);
  // im2col_into validates rather than reshapes: the caller owns the sizing
  // (conv acquires the exact shape from its workspace). Every element is
  // written, padding taps included, so stale contents never leak through.
  Tensor cols_out = Tensor::full(cols.shape(), 5.0f);
  im2col_into(x, 0, 3, 1, 1, cols_out);
  EXPECT_THROW(im2col_into(x, 0, 3, 1, 1, out), std::invalid_argument);
  ASSERT_TRUE(cols_out.same_shape(cols));
  for (std::size_t i = 0; i < cols.size(); ++i) EXPECT_EQ(cols_out[i], cols[i]);
}

// The fused conv epilogue: bias (and optionally ReLU) applied inside the
// GEMM after full k-accumulation must be bit-identical to the separate
// passes — the PR-1/PR-2 determinism pins depend on it.
TEST(Ops, FusedBiasEpilogueMatchesSeparatePassesBitwise) {
  Rng rng(31);
  const int m = 9, k = 27, n = 40;
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const Tensor bias = Tensor::randn({m}, rng);

  Tensor ref;
  matmul_into(a, b, ref);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      ref.at(i, j) += bias[static_cast<std::size_t>(i)];

  Tensor fused({m, n});
  matmul_bias_into(a, b, bias.data(), fused);
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(fused[i], ref[i]);

  Tensor relu_ref = ref;
  for (std::size_t i = 0; i < relu_ref.size(); ++i)
    relu_ref[i] = relu_ref[i] > 0.0f ? relu_ref[i] : 0.0f;
  Tensor fused_relu({m, n});
  matmul_bias_into(a, b, bias.data(), fused_relu, /*fuse_relu=*/true);
  for (std::size_t i = 0; i < relu_ref.size(); ++i)
    EXPECT_EQ(fused_relu[i], relu_ref[i]);

  // Null bias with fused ReLU: epilogue is just the clamp.
  Tensor no_bias;
  matmul_into(a, b, no_bias);
  for (std::size_t i = 0; i < no_bias.size(); ++i)
    no_bias[i] = no_bias[i] > 0.0f ? no_bias[i] : 0.0f;
  Tensor fused_nb({m, n});
  matmul_bias_into(a, b, nullptr, fused_nb, /*fuse_relu=*/true);
  for (std::size_t i = 0; i < no_bias.size(); ++i)
    EXPECT_EQ(fused_nb[i], no_bias[i]);
}

TEST(Workspace, MissThenHitOnReacquire) {
  Workspace ws;
  const auto s0 = ws.stats();
  EXPECT_EQ(s0.hits, 0u);
  EXPECT_EQ(s0.misses, 0u);
  {
    WorkspaceTensor t = ws.acquire({4, 5});
    EXPECT_EQ(t->shape(), (Shape{4, 5}));
    const auto s1 = ws.stats();
    EXPECT_EQ(s1.misses, 1u);
    EXPECT_EQ(s1.outstanding, 1u);
    EXPECT_EQ(s1.bytes_allocated, 4u * 5u * sizeof(float));
  }
  const auto s2 = ws.stats();
  EXPECT_EQ(s2.outstanding, 0u);
  EXPECT_EQ(s2.cached, 1u);
  {
    // Same capacity (different shape): must be served from the free list.
    WorkspaceTensor t = ws.acquire({2, 10});
    EXPECT_EQ(t->shape(), (Shape{2, 10}));
    const auto s3 = ws.stats();
    EXPECT_EQ(s3.hits, 1u);
    EXPECT_EQ(s3.misses, 1u);
    EXPECT_EQ(s3.bytes_allocated, s2.bytes_allocated) << "hit must not allocate";
  }
}

TEST(Workspace, SmallestAdequateBufferWins) {
  Workspace ws;
  {
    WorkspaceTensor big = ws.acquire({100});
    WorkspaceTensor small = ws.acquire({10});
  }
  EXPECT_EQ(ws.stats().cached, 2u);
  {
    // A request fitting the small buffer must not burn the big one.
    WorkspaceTensor t = ws.acquire({8});
    EXPECT_EQ(t->capacity(), 10u);
    WorkspaceTensor u = ws.acquire({60});
    EXPECT_EQ(u->capacity(), 100u);
  }
  EXPECT_EQ(ws.stats().hits, 2u);
  EXPECT_EQ(ws.stats().misses, 2u);
}

TEST(Workspace, ClearDropsCachedBuffers) {
  Workspace ws;
  { WorkspaceTensor t = ws.acquire({16}); }
  EXPECT_EQ(ws.stats().cached, 1u);
  ws.clear();
  EXPECT_EQ(ws.stats().cached, 0u);
  WorkspaceTensor t = ws.acquire({16});  // re-warms with a fresh miss
  EXPECT_EQ(ws.stats().misses, 2u);
}

TEST(Workspace, AcquireZeroedIsZeroFilled) {
  Workspace ws;
  {
    WorkspaceTensor t = ws.acquire({8});
    for (std::size_t i = 0; i < t->size(); ++i) (*t)[i] = 7.0f;  // dirty it
  }
  WorkspaceTensor z = ws.acquire_zeroed({8});
  for (std::size_t i = 0; i < z->size(); ++i) EXPECT_EQ((*z)[i], 0.0f);
}

TEST(Workspace, MovedFromCheckoutDoesNotDoubleRelease) {
  Workspace ws;
  {
    WorkspaceTensor a = ws.acquire({4});
    WorkspaceTensor b = std::move(a);
    EXPECT_FALSE(a.valid());
    EXPECT_TRUE(b.valid());
    EXPECT_EQ(ws.stats().outstanding, 1u);
  }
  EXPECT_EQ(ws.stats().outstanding, 0u);
  EXPECT_EQ(ws.stats().cached, 1u);
}

TEST(Workspace, LocalIsPerThreadAndStable) {
  Workspace& a = Workspace::local();
  Workspace& b = Workspace::local();
  EXPECT_EQ(&a, &b);
}

TEST(Workspace, PipelineThreadKeepsLocalWorkspaceWarmAcrossTasks) {
  // The PR-4 caveat, fixed: segment producers used to run via std::async,
  // which hands every segment to a fresh thread — a fresh thread-local
  // Workspace, so every segment re-missed its whole working set. The
  // segment pipeline now runs all producer tasks on one PipelineThread;
  // this pins the mechanism: the thread (and thus Workspace::local()) is
  // the same across tasks, and after the first task's cold acquire every
  // later task is served entirely from the warm arena — zero new misses.
  constexpr int kTasks = 6;
  std::array<Workspace::Stats, kTasks> stats{};
  std::array<std::thread::id, kTasks> tids{};
  int task_index = 0;
  PipelineThread producer;
  const auto task = [&] {
    {
      WorkspaceTensor t = Workspace::local().acquire({64, 64});
      (*t)[0] = static_cast<float>(task_index);
    }
    stats[static_cast<std::size_t>(task_index)] = Workspace::local().stats();
    tids[static_cast<std::size_t>(task_index)] = std::this_thread::get_id();
  };
  for (int s = 0; s < kTasks; ++s) {
    task_index = s;
    producer.run(task);
    producer.wait();
  }
  for (int s = 1; s < kTasks; ++s) {
    EXPECT_EQ(tids[static_cast<std::size_t>(s)], tids[0])
        << "every task must run on the same persistent thread";
    EXPECT_EQ(stats[static_cast<std::size_t>(s)].misses, stats[0].misses)
        << "task " << s << " re-missed: the workspace went cold";
    EXPECT_EQ(stats[static_cast<std::size_t>(s)].bytes_allocated,
              stats[0].bytes_allocated)
        << "task " << s << " allocated beyond warm-up";
  }
  EXPECT_EQ(stats[kTasks - 1].hits, stats[0].hits + kTasks - 1)
      << "warm tasks must be served from the cached buffer";
}

TEST(Workspace, FailedAcquireLeavesCountersUntouched) {
  // acquire() validates the shape before any counter moves or any buffer
  // leaves the free list, so a failed checkout can never leak `outstanding`
  // (the exception-safety fix this PR's workspace audit landed).
  Workspace ws;
  { WorkspaceTensor warm = ws.acquire({8}); }
  const Workspace::Stats before = ws.stats();
  EXPECT_THROW(ws.acquire({0, 3}), std::invalid_argument);
  EXPECT_THROW(ws.acquire({-2}), std::invalid_argument);
  EXPECT_THROW(ws.acquire_zeroed({4, -1}), std::invalid_argument);
  const Workspace::Stats after = ws.stats();
  EXPECT_EQ(after.outstanding, before.outstanding);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.cached, before.cached);
  // The workspace still works after the failures.
  WorkspaceTensor ok = ws.acquire({8});
  EXPECT_EQ(ws.stats().outstanding, before.outstanding + 1);
}

// ---------------------------------------------------------------------------
// Checked-build negative tests: each detector must FIRE on the violation it
// guards. The blocks compile out of release builds, where the same accesses
// are the caller's contract to keep in range (tools/run_checks.sh's `checked`
// leg runs them with every check on).
// ---------------------------------------------------------------------------

#if DCSR_BOUNDS_CHECK
TEST(CheckedBounds, FlatIndexPastEndThrowsNamingSiteAndShape) {
  Tensor t({2, 3});
  try {
    (void)t[6];
    FAIL() << "expected TensorBoundsError";
  } catch (const TensorBoundsError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("Tensor::operator[]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("6"), std::string::npos) << msg;
  }
  // TensorBoundsError slots into std::out_of_range, matching the codec's
  // BitstreamError hierarchy, so generic catch sites keep working.
  EXPECT_THROW((void)t[100], std::out_of_range);
}

TEST(CheckedBounds, At4dOutOfRangeThrows) {
  Tensor t({1, 2, 4, 4});
  EXPECT_NO_THROW(t.at(0, 1, 3, 3));
  EXPECT_THROW(t.at(1, 0, 0, 0), TensorBoundsError);
  EXPECT_THROW(t.at(0, 2, 0, 0), TensorBoundsError);
  EXPECT_THROW(t.at(0, 0, 4, 0), TensorBoundsError);
  EXPECT_THROW(t.at(0, 0, 0, -1), TensorBoundsError);
}

TEST(CheckedBounds, ViewPastEndThrows) {
  Tensor t({8});
  EXPECT_NO_THROW(t.view(0, 8));
  EXPECT_NO_THROW(t.view(8, 0));
  EXPECT_THROW(t.view(1, 8), TensorBoundsError);
  EXPECT_THROW(t.view(9, 0), TensorBoundsError);
}

TEST(CheckedBounds, SliceOutOfRangeThrows) {
  Tensor t({3, 4});
  EXPECT_NO_THROW(t.slice(2));
  EXPECT_THROW(t.slice(3), TensorBoundsError);
  EXPECT_THROW(t.slice(-1), TensorBoundsError);
}
#endif  // DCSR_BOUNDS_CHECK

#if DCSR_POISON_WORKSPACE
TEST(CheckedPoison, AcquireHandsOutSignallingNaNBits) {
  Workspace ws;
  WorkspaceTensor t = ws.acquire({16});
  for (std::size_t i = 0; i < t->size(); ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &(*t)[i], sizeof bits);
    ASSERT_EQ(bits, kWorkspacePoisonBits) << "element " << i;
  }
}

TEST(CheckedPoison, ReleaseRepoisonsTheBuffer) {
  // A stale read through a recycled buffer must see NaN, not the previous
  // checkout's data — release() re-poisons before parking on the free list.
  Workspace ws;
  {
    WorkspaceTensor t = ws.acquire({16});
    for (std::size_t i = 0; i < t->size(); ++i) (*t)[i] = 7.0f;
  }
  WorkspaceTensor again = ws.acquire({16});
  EXPECT_EQ(ws.stats().hits, 1u);  // same buffer came back
  for (std::size_t i = 0; i < again->size(); ++i)
    ASSERT_TRUE(std::isnan((*again)[i])) << "element " << i;
}

TEST(CheckedPoison, AcquireZeroedOverridesThePoison) {
  Workspace ws;
  { WorkspaceTensor dirty = ws.acquire({8}); }
  WorkspaceTensor z = ws.acquire_zeroed({8});
  for (std::size_t i = 0; i < z->size(); ++i) EXPECT_EQ((*z)[i], 0.0f);
}
#endif  // DCSR_POISON_WORKSPACE

}  // namespace
}  // namespace dcsr
