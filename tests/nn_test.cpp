#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/module.hpp"
#include "nn/optim.hpp"
#include "nn/resblock.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "nn/shape_ops.hpp"
#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"
#include "util/alloc_check.hpp"
#include "util/thread_pool.hpp"

namespace dcsr::nn {
namespace {

// Scalar objective used for gradient checks: L = sum(w .* f(x)) with fixed
// random weights w, so dL/d(out) = w.
double objective(const Tensor& out, const Tensor& w) {
  double s = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) s += out[i] * w[i];
  return s;
}

// Finite-difference check of input gradients AND parameter gradients for an
// arbitrary module.
void grad_check(Module& m, const Tensor& x0, double tol = 2e-2) {
  Rng rng(99);
  Tensor x = x0;
  Tensor out = m.forward(x);
  const Tensor w = Tensor::randn(out.shape(), rng);

  m.zero_grad();
  Tensor gin = m.backward(w);

  constexpr float kEps = 1e-3f;
  // Input gradient: probe a handful of positions.
  for (std::size_t probe = 0; probe < std::min<std::size_t>(x.size(), 12); ++probe) {
    const std::size_t i = (probe * 7919) % x.size();
    Tensor xp = x, xm = x;
    xp[i] += kEps;
    xm[i] -= kEps;
    const double fp = objective(m.forward(xp), w);
    const double fm = objective(m.forward(xm), w);
    const double numeric = (fp - fm) / (2.0 * kEps);
    EXPECT_NEAR(gin[i], numeric, tol * std::max(1.0, std::abs(numeric)))
        << "input grad mismatch at " << i;
  }

  // Parameter gradients: recompute analytic grads at x (forward state was
  // clobbered by the probes above).
  m.zero_grad();
  m.forward(x);
  m.backward(w);
  for (Param* p : m.params()) {
    // Copy analytic grads before probing (probes don't touch grads but the
    // forward cache changes).
    Tensor analytic = p->grad;
    for (std::size_t probe = 0; probe < std::min<std::size_t>(p->value.size(), 8); ++probe) {
      const std::size_t i = (probe * 104729) % p->value.size();
      const float orig = p->value[i];
      p->value[i] = orig + kEps;
      const double fp = objective(m.forward(x), w);
      p->value[i] = orig - kEps;
      const double fm = objective(m.forward(x), w);
      p->value[i] = orig;
      const double numeric = (fp - fm) / (2.0 * kEps);
      EXPECT_NEAR(analytic[i], numeric, tol * std::max(1.0, std::abs(numeric)))
          << "param grad mismatch at " << i;
    }
  }
}

TEST(Conv2d, OutputShapeSamePadding) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, rng);
  const Tensor y = conv.forward(Tensor({2, 3, 6, 5}));
  EXPECT_EQ(y.shape(), (Shape{2, 8, 6, 5}));
}

TEST(Conv2d, OutputShapeStride2) {
  Rng rng(1);
  Conv2d conv(2, 4, 3, rng, /*stride=*/2, /*pad=*/1);
  const Tensor y = conv.forward(Tensor({1, 2, 8, 8}));
  EXPECT_EQ(y.shape(), (Shape{1, 4, 4, 4}));
}

TEST(Conv2d, BiasShiftsOutput) {
  Rng rng(2);
  Conv2d conv(1, 1, 1, rng);
  conv.weight().value.fill(0.0f);
  conv.bias().value.fill(1.5f);
  const Tensor y = conv.forward(Tensor({1, 1, 2, 2}));
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], 1.5f);
}

TEST(Conv2d, GradCheck) {
  Rng rng(3);
  Conv2d conv(2, 3, 3, rng);
  grad_check(conv, Tensor::randn({1, 2, 5, 4}, rng));
}

TEST(Conv2d, BackwardRejectsWrongGradShape) {
  Rng rng(9);
  Conv2d conv(2, 4, 3, rng);
  conv.forward(Tensor({2, 2, 6, 6}));
  EXPECT_THROW(conv.backward(Tensor({2, 2, 6, 6})), std::invalid_argument);
  EXPECT_THROW(conv.backward(Tensor({1, 4, 6, 6})), std::invalid_argument);
  EXPECT_THROW(conv.backward(Tensor({2, 4, 5, 6})), std::invalid_argument);
  EXPECT_THROW(conv.backward(Tensor({2, 4, 6, 6}).reshaped({2, 4, 36})),
               std::invalid_argument);
  conv.backward(Tensor({2, 4, 6, 6}));  // the matching shape still works
}

TEST(Conv2d, GradCheckStrided) {
  Rng rng(4);
  Conv2d conv(2, 2, 3, rng, /*stride=*/2, /*pad=*/1);
  grad_check(conv, Tensor::randn({1, 2, 6, 6}, rng));
}

TEST(Linear, GradCheck) {
  Rng rng(5);
  Linear lin(6, 4, rng);
  grad_check(lin, Tensor::randn({3, 6}, rng));
}

TEST(Activations, ReluForwardAndGrad) {
  ReLU relu;
  Tensor x({1, 4});
  x[0] = -1;
  x[1] = 0;
  x[2] = 2;
  x[3] = -3;
  const Tensor y = relu.forward(x.reshaped({1, 1, 1, 4}));
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Rng rng(6);
  grad_check(relu, Tensor::randn({1, 1, 2, 8}, rng));
}

TEST(Activations, SigmoidRangeAndGrad) {
  Sigmoid sig;
  Rng rng(8);
  const Tensor y = sig.forward(Tensor::randn({1, 1, 4, 4}, rng, 3.0f));
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_GT(y[i], 0.0f);
    EXPECT_LT(y[i], 1.0f);
  }
  grad_check(sig, Tensor::randn({1, 1, 3, 3}, rng));
}

TEST(PixelShuffle, RearrangesChannelsToSpace) {
  PixelShuffle ps(2);
  Tensor x({1, 4, 1, 1});
  for (int c = 0; c < 4; ++c) x.at(0, c, 0, 0) = static_cast<float>(c);
  const Tensor y = ps.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(y.at(0, 0, 0, 0), 0.0f);
  EXPECT_EQ(y.at(0, 0, 0, 1), 1.0f);
  EXPECT_EQ(y.at(0, 0, 1, 0), 2.0f);
  EXPECT_EQ(y.at(0, 0, 1, 1), 3.0f);
}

TEST(PixelShuffle, BackwardIsInverse) {
  Rng rng(10);
  PixelShuffle ps(2);
  const Tensor x = Tensor::randn({1, 8, 3, 3}, rng);
  const Tensor y = ps.forward(x);
  const Tensor back = ps.backward(y);  // permutation => backward(forward(x)) == x
  ASSERT_TRUE(back.same_shape(x));
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(back[i], x[i]);
}

TEST(BilinearUpsample, ConstantStaysConstant) {
  BilinearUpsample up(2);
  const Tensor y = up.forward(Tensor::full({1, 1, 3, 3}, 0.4f));
  EXPECT_EQ(y.shape(), (Shape{1, 1, 6, 6}));
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], 0.4f, 1e-6f);
}

TEST(BilinearUpsample, InterpolatesBetweenSamples) {
  BilinearUpsample up(2);
  Tensor x({1, 1, 1, 2});
  x[0] = 0.0f;
  x[1] = 1.0f;
  const Tensor y = up.forward(x);
  // Centre-aligned x2: outputs sample at src positions -0.25, 0.25, 0.75, 1.25.
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.25f);
  EXPECT_FLOAT_EQ(y[2], 0.75f);
  EXPECT_FLOAT_EQ(y[3], 1.0f);
}

TEST(BilinearUpsample, GradCheck) {
  Rng rng(31);
  BilinearUpsample up(2);
  grad_check(up, Tensor::randn({1, 2, 3, 4}, rng));
}

TEST(BilinearUpsample, BackwardIsAdjoint) {
  // <up(x), y> == <x, up^T(y)> for random tensors.
  Rng rng(32);
  BilinearUpsample up(3);
  const Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  const Tensor y = Tensor::randn({1, 1, 12, 12}, rng);
  const Tensor ux = up.forward(x);
  const Tensor uty = up.backward(y);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < ux.size(); ++i) lhs += ux[i] * y[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += x[i] * uty[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(UpsampleNearest, GradCheck) {
  Rng rng(11);
  UpsampleNearest up(2);
  grad_check(up, Tensor::randn({1, 2, 3, 3}, rng));
}

TEST(FlattenReshape, RoundTrip) {
  Rng rng(12);
  Flatten flat;
  Reshape4 back(3, 4, 5);
  const Tensor x = Tensor::randn({2, 3, 4, 5}, rng);
  const Tensor y = back.forward(flat.forward(x));
  ASSERT_TRUE(y.same_shape(x));
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(ResBlock, IdentityWhenConvsZero) {
  Rng rng(13);
  ResBlock rb(4, rng);
  for (Param* p : rb.params()) p->value.zero();
  const Tensor x = Tensor::randn({1, 4, 5, 5}, rng);
  const Tensor y = rb.forward(x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(ResBlock, GradCheck) {
  Rng rng(14);
  ResBlock rb(2, rng, 0.5f);
  grad_check(rb, Tensor::randn({1, 2, 4, 4}, rng));
}

TEST(Sequential, ChainsAndCollectsParams) {
  Rng rng(15);
  Sequential seq;
  seq.emplace<Conv2d>(1, 2, 3, rng);
  seq.emplace<ReLU>();
  seq.emplace<Conv2d>(2, 1, 3, rng);
  EXPECT_EQ(seq.params().size(), 4u);
  const Tensor y = seq.forward(Tensor({1, 1, 4, 4}));
  EXPECT_EQ(y.shape(), (Shape{1, 1, 4, 4}));
  grad_check(seq, Tensor::randn({1, 1, 4, 4}, rng));
}

TEST(Loss, MseMatchesDefinitionAndGrad) {
  Tensor pred = Tensor::full({2, 2}, 1.0f);
  Tensor target = Tensor::full({2, 2}, 0.0f);
  const LossResult r = mse_loss(pred, target);
  EXPECT_DOUBLE_EQ(r.value, 1.0);
  for (std::size_t i = 0; i < r.grad.size(); ++i)
    EXPECT_FLOAT_EQ(r.grad[i], 2.0f / 4.0f);
}

TEST(Loss, KlZeroForStandardNormal) {
  const Tensor mu({2, 3});
  const Tensor logvar({2, 3});  // zeros => unit variance
  const KlResult r = kl_divergence(mu, logvar);
  EXPECT_NEAR(r.value, 0.0, 1e-9);
  for (std::size_t i = 0; i < r.grad_mu.size(); ++i) {
    EXPECT_FLOAT_EQ(r.grad_mu[i], 0.0f);
    EXPECT_FLOAT_EQ(r.grad_logvar[i], 0.0f);
  }
}

TEST(Loss, KlGradientsByFiniteDifference) {
  Rng rng(16);
  Tensor mu = Tensor::randn({2, 4}, rng);
  Tensor logvar = Tensor::randn({2, 4}, rng, 0.5f);
  const KlResult r = kl_divergence(mu, logvar);
  constexpr float kEps = 1e-3f;
  for (std::size_t i = 0; i < mu.size(); ++i) {
    Tensor mp = mu;
    mp[i] += kEps;
    Tensor mm = mu;
    mm[i] -= kEps;
    const double num = (kl_divergence(mp, logvar).value -
                        kl_divergence(mm, logvar).value) /
                       (2.0 * kEps);
    EXPECT_NEAR(r.grad_mu[i], num, 1e-3);
  }
  for (std::size_t i = 0; i < logvar.size(); ++i) {
    Tensor lp = logvar;
    lp[i] += kEps;
    Tensor lm = logvar;
    lm[i] -= kEps;
    const double num = (kl_divergence(mu, lp).value -
                        kl_divergence(mu, lm).value) /
                       (2.0 * kEps);
    EXPECT_NEAR(r.grad_logvar[i], num, 1e-3);
  }
}

TEST(Optim, AdamDescendsQuadratic) {
  Param w(Tensor::full({4}, 10.0f));
  Adam opt({&w}, 0.5);
  for (int it = 0; it < 300; ++it) {
    for (std::size_t i = 0; i < w.value.size(); ++i)
      w.grad[i] = 2.0f * (w.value[i] + 1.0f);
    opt.step();
  }
  for (std::size_t i = 0; i < w.value.size(); ++i)
    EXPECT_NEAR(w.value[i], -1.0f, 1e-2f);
}

TEST(Optim, TrainsTinyConvToIdentity) {
  // End-to-end sanity: a 1-channel 3x3 conv can learn the identity map.
  Rng rng(17);
  Conv2d conv(1, 1, 3, rng);
  Adam opt(conv.params(), 0.05);
  const Tensor x = Tensor::randn({4, 1, 6, 6}, rng);
  double final_loss = 1e9;
  for (int it = 0; it < 200; ++it) {
    conv.zero_grad();
    const Tensor y = conv.forward(x);
    const LossResult r = mse_loss(y, x);
    conv.backward(r.grad);
    opt.step();
    final_loss = r.value;
  }
  EXPECT_LT(final_loss, 1e-3);
}

TEST(Serialize, SaveLoadRoundTrip) {
  Rng rng(18);
  Sequential a, b;
  a.emplace<Conv2d>(2, 3, 3, rng);
  a.emplace<Linear>(4, 2, rng);  // not used in forward; params only
  b.emplace<Conv2d>(2, 3, 3, rng);
  b.emplace<Linear>(4, 2, rng);

  ByteWriter w;
  save_params(a, w);
  EXPECT_EQ(w.size(), serialized_size(a));

  ByteReader r(w.bytes());
  load_params(b, r);
  const auto pa = a.params();
  const auto pb = b.params();
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::size_t j = 0; j < pa[i]->value.size(); ++j)
      EXPECT_EQ(pa[i]->value[j], pb[i]->value[j]);
}

TEST(Serialize, LoadRejectsWrongTopology) {
  Rng rng(19);
  Sequential a, b;
  a.emplace<Conv2d>(2, 3, 3, rng);
  b.emplace<Conv2d>(2, 4, 3, rng);  // different width
  ByteWriter w;
  save_params(a, w);
  ByteReader r(w.bytes());
  EXPECT_THROW(load_params(b, r), std::invalid_argument);
}

TEST(Serialize, LoadRejectsWrongRankByte) {
  // The rank byte is compared as it is read, before any dim: a rank that
  // disagrees with the model's parameter is a shape mismatch, in both the
  // fp32 and the fp16 format.
  Rng rng(21);
  Conv2d a(2, 3, 3, rng), b(2, 3, 3, rng);
  constexpr std::size_t kFirstRankAt = 8;  // after magic and param count
  for (const bool fp16 : {false, true}) {
    SCOPED_TRACE(fp16 ? "fp16" : "fp32");
    ByteWriter w;
    if (fp16) {
      save_params_fp16(a, w);
    } else {
      save_params(a, w);
    }
    auto bytes = w.bytes();
    ASSERT_EQ(bytes[kFirstRankAt], a.params()[0]->value.rank());
    bytes[kFirstRankAt] = static_cast<std::uint8_t>(bytes[kFirstRankAt] + 1);
    ByteReader r(std::move(bytes));
    try {
      if (fp16) {
        load_params_fp16(b, r);
      } else {
        load_params(b, r);
      }
      FAIL() << "a wrong rank byte was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("shape mismatch"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Serialize, CopyParamsMakesModelsIdentical) {
  Rng rng(20);
  Conv2d a(1, 2, 3, rng), b(1, 2, 3, rng);
  copy_params(a, b);
  const Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(Module, ParamCountMatchesArchitecture) {
  Rng rng(21);
  Conv2d conv(3, 16, 3, rng);
  // 16 * (3*3*3) weights + 16 biases.
  EXPECT_EQ(conv.param_count(), 16u * 27u + 16u);
}

// The stateless contract: infer() must compute the exact same floats as
// forward() — not merely close, bit-identical — for every layer type, since
// the concurrent client paths rely on swapping one for the other.
void expect_infer_matches_forward(Module& m, const Tensor& x) {
  const Tensor from_forward = m.forward(x);
  const Tensor from_infer = m.infer(x);
  ASSERT_EQ(from_forward.shape(), from_infer.shape());
  for (std::size_t i = 0; i < from_forward.size(); ++i)
    EXPECT_EQ(from_forward[i], from_infer[i]) << "element " << i;
}

TEST(Infer, MatchesForwardBitwisePerLayer) {
  Rng rng(31);
  const Tensor x = Tensor::randn({2, 4, 6, 6}, rng);

  Conv2d conv(4, 5, 3, rng);
  expect_infer_matches_forward(conv, x);

  Conv2d strided(4, 5, 3, rng, /*stride=*/2);
  expect_infer_matches_forward(strided, x);

  ReLU relu;
  expect_infer_matches_forward(relu, x);
  Sigmoid sigmoid;
  expect_infer_matches_forward(sigmoid, x);

  Linear linear(24, 7, rng);
  const Tensor flat = Tensor::randn({3, 24}, rng);
  expect_infer_matches_forward(linear, flat);

  PixelShuffle shuffle(2);
  expect_infer_matches_forward(shuffle, x);
  BilinearUpsample bilinear(2);
  expect_infer_matches_forward(bilinear, x);
  UpsampleNearest nearest(2);
  expect_infer_matches_forward(nearest, x);

  ResBlock res(4, rng, 0.5f);
  expect_infer_matches_forward(res, x);

  Sequential seq;
  seq.emplace<Conv2d>(4, 4, 3, rng);
  seq.emplace<ReLU>();
  seq.emplace<Conv2d>(4, 4, 3, rng);
  expect_infer_matches_forward(seq, x);
}

// A batch through infer_into must carry, at batch index i, exactly the
// floats a batch-of-one run of item i produces — the batch dimension is a
// layout decision, never a numeric one. The batched SR serving path
// (Edsr::enhance_batch_into, fleet coalescing) relies on this bitwise.
void expect_batch_matches_items(const Module& m, const Tensor& x) {
  Workspace& ws = Workspace::local();
  Tensor batch_out(m.out_shape(x.shape()));
  m.infer_into(x, batch_out, ws);

  const int N = x.dim(0);
  ASSERT_GE(N, 2) << "batch test needs a real batch";
  Shape item_shape = x.shape();
  item_shape[0] = 1;
  const std::size_t in_stride = x.size() / static_cast<std::size_t>(N);
  const std::size_t out_stride =
      batch_out.size() / static_cast<std::size_t>(N);
  Tensor item(item_shape);
  Tensor item_out(m.out_shape(item_shape));
  for (int i = 0; i < N; ++i) {
    std::memcpy(item.data(), x.data() + static_cast<std::size_t>(i) * in_stride,
                in_stride * sizeof(float));
    m.infer_into(item, item_out, ws);
    EXPECT_EQ(std::memcmp(item_out.data(),
                          batch_out.data() +
                              static_cast<std::size_t>(i) * out_stride,
                          out_stride * sizeof(float)),
              0)
        << m.name() << " batch item " << i << " diverges from a solo run";
  }
}

TEST(Infer, BatchMatchesPerItemBitwise) {
  Rng rng(47);
  const Tensor x = Tensor::randn({3, 4, 6, 6}, rng);

  Conv2d conv(4, 5, 3, rng);
  expect_batch_matches_items(conv, x);
  Conv2d strided(4, 5, 3, rng, /*stride=*/2);
  expect_batch_matches_items(strided, x);

  ReLU relu;
  expect_batch_matches_items(relu, x);
  Sigmoid sigmoid;
  expect_batch_matches_items(sigmoid, x);

  Linear linear(24, 7, rng);
  expect_batch_matches_items(linear, Tensor::randn({3, 24}, rng));

  PixelShuffle shuffle(2);
  expect_batch_matches_items(shuffle, x);
  BilinearUpsample bilinear(2);
  expect_batch_matches_items(bilinear, x);
  UpsampleNearest nearest(2);
  expect_batch_matches_items(nearest, x);

  Flatten flatten;
  expect_batch_matches_items(flatten, x);
  Reshape4 reshape(4, 6, 6);
  expect_batch_matches_items(reshape, Tensor::randn({3, 4 * 6 * 6}, rng));

  ResBlock res(4, rng, 0.5f);
  expect_batch_matches_items(res, x);

  Sequential seq;
  seq.emplace<Conv2d>(4, 4, 3, rng);
  seq.emplace<ReLU>();
  seq.emplace<Conv2d>(4, 4, 3, rng);
  expect_batch_matches_items(seq, x);
}

TEST(Infer, IsConstAndLeavesNoBackwardState) {
  Rng rng(32);
  const Conv2d conv(3, 4, 3, rng);  // const: only infer() is callable
  const Tensor x = Tensor::randn({1, 3, 5, 5}, rng);
  const Tensor y = conv.infer(x);
  EXPECT_EQ(y.dim(1), 4);

  // infer() caches nothing, so a backward pass has nothing to consume.
  Conv2d mutable_conv(3, 4, 3, rng);
  mutable_conv.infer(x);
  EXPECT_THROW(mutable_conv.backward(Tensor({1, 4, 5, 5})), std::logic_error);
}

TEST(Infer, ConcurrentCallsOnSharedModuleMatchSerial) {
  Rng rng(33);
  Sequential seq;
  seq.emplace<Conv2d>(3, 6, 3, rng);
  seq.emplace<ReLU>();
  seq.emplace<Conv2d>(6, 3, 3, rng);

  std::vector<Tensor> inputs;
  for (int i = 0; i < 6; ++i)
    inputs.push_back(Tensor::randn({1, 3, 8, 8}, rng));

  std::vector<Tensor> serial;
  for (const Tensor& in : inputs) serial.push_back(seq.infer(in));

  const int saved_threads = default_thread_count();
  set_default_pool_threads(4);
  std::vector<Tensor> concurrent(inputs.size());
  parallel_for_writes(
      0, static_cast<std::int64_t>(inputs.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        return span_of(concurrent.data() + lo, static_cast<std::size_t>(hi - lo));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          concurrent[static_cast<std::size_t>(i)] =
              seq.infer(inputs[static_cast<std::size_t>(i)]);
      },
      "tests/nn_test.cpp:ConcurrentCallsOnSharedModuleMatchSerial");
  set_default_pool_threads(saved_threads);

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(serial[i].shape(), concurrent[i].shape());
    for (std::size_t j = 0; j < serial[i].size(); ++j)
      EXPECT_EQ(serial[i][j], concurrent[i][j]) << "frame " << i;
  }
}

TEST(Infer, MatchesForwardBitwiseAcrossThreadCounts) {
  // The workspace-backed infer path under different DCSR_THREADS settings
  // must reproduce forward()'s floats exactly — same pin as the per-layer
  // test, but exercising the pool-width axis the claim checker cares about.
  const int saved_threads = default_thread_count();
  Rng rng(35);
  Sequential seq;
  seq.emplace<Conv2d>(3, 6, 3, rng);
  seq.emplace<ReLU>();
  seq.emplace<Conv2d>(6, 3, 3, rng);
  const Tensor x = Tensor::randn({1, 3, 9, 7}, rng);
  const Tensor ref = seq.forward(x);
  for (const int threads : {1, 4}) {
    set_default_pool_threads(threads);
    const Tensor y = seq.infer(x);
    ASSERT_EQ(ref.shape(), y.shape());
    for (std::size_t j = 0; j < ref.size(); ++j)
      ASSERT_EQ(ref[j], y[j]) << "threads=" << threads << " element " << j;
  }
  set_default_pool_threads(saved_threads);
}

TEST(Conv2d, RejectsDegenerateOutputGeometry) {
  Rng rng(36);
  // 5x5 kernel, no padding, on a 2x2 image: the output extent would be -2.
  Conv2d conv(1, 1, 5, rng, /*stride=*/1, /*pad=*/0);
  const Tensor tiny = Tensor::randn({1, 1, 2, 2}, rng);
  try {
    conv.forward(tiny);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("kernel=5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pad=0"), std::string::npos) << msg;
  }
  EXPECT_THROW(conv.infer(tiny), std::invalid_argument);
  EXPECT_THROW(conv.out_shape(tiny.shape()), std::invalid_argument);
}

TEST(Conv2d, ColumnCacheReuseLeaksNoStaleColumns) {
  // forward keeps each batch item's backward operand (for this 3x3 conv the
  // zero-bordered input; im2col columns for other geometries) and resets
  // the slots in place, so a step reuses the previous step's capacity. A
  // smaller second step (fewer items, smaller image) must not see any of the
  // first step's operands: its gradients must equal a fresh layer's bitwise.
  Rng data_rng(37);
  const Tensor big = Tensor::randn({3, 2, 8, 8}, data_rng);
  const Tensor small = Tensor::randn({1, 2, 6, 5}, data_rng);
  const Tensor grad_out = Tensor::randn({1, 3, 6, 5}, data_rng);

  Rng rng_reused(38), rng_fresh(38);
  Conv2d reused(2, 3, 3, rng_reused);
  Conv2d fresh(2, 3, 3, rng_fresh);
  reused.forward(big);
  reused.zero_grad();
  const Tensor y_reused = reused.forward(small);
  const Tensor gx_reused = reused.backward(grad_out);
  const Tensor y_fresh = fresh.forward(small);
  const Tensor gx_fresh = fresh.backward(grad_out);

  const auto bits_equal = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  EXPECT_TRUE(bits_equal(y_reused, y_fresh));
  EXPECT_TRUE(bits_equal(gx_reused, gx_fresh)) << "input gradient";
  EXPECT_TRUE(bits_equal(reused.weight().grad, fresh.weight().grad))
      << "weight gradient";
  EXPECT_TRUE(bits_equal(reused.bias().grad, fresh.bias().grad))
      << "bias gradient";
}

TEST(Conv2d, DirectPathMatchesIm2colGemmBitwise) {
  // infer_into runs 3x3/stride-1/pad-1 convs through the direct conv3x3
  // kernel. It must write exactly the floats of the im2col + GEMM sequence
  // it replaced, fused ReLU or not, for every batch item. Odd widths and
  // channel counts reach the kernel's partial blocks and masked tails.
  Rng rng(40);
  struct Geo {
    int c, o, h, w;
  };
  for (const Geo g : {Geo{3, 8, 7, 13}, Geo{8, 8, 6, 24}, Geo{5, 3, 9, 37}})
    for (const int N : {1, 3}) {
      Conv2d conv(g.c, g.o, 3, rng);
      const Tensor x = Tensor::randn({N, g.c, g.h, g.w}, rng);
      Tensor cols({g.c * 9, g.h * g.w});
      for (const bool relu : {false, true}) {
        Tensor got;
        conv.infer_into(x, got, Workspace::local(), relu);
        Tensor want({N, g.o, g.h, g.w});
        const std::size_t item = static_cast<std::size_t>(g.o) * g.h * g.w;
        for (int n = 0; n < N; ++n) {
          im2col_into(x, n, 3, 1, 1, cols);
          matmul_bias_into(conv.weight().value, cols,
                           conv.bias().value.data(),
                           MutMat(want.data() + n * item, g.o, g.h * g.w),
                           relu);
        }
        ASSERT_EQ(got.shape(), want.shape());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "c=" << g.c << " o=" << g.o << " w=" << g.w << " N=" << N
            << " relu=" << relu;
      }
    }
}

TEST(Conv2d, DirectPathRejectsWrongChannelsBeforeCheckout) {
  // A wrong channel count is a std::invalid_argument raised before the
  // direct path checks out its padded buffer, also inside a hot-path guard
  // (where building the message must not trip the allocation audit).
  Rng rng(41);
  const Conv2d conv(4, 5, 3, rng);
  const Tensor bad = Tensor::randn({1, 3, 6, 6}, rng);
  Workspace ws;
  Tensor out;
  {
    HotPathGuard guard("nn_test:DirectPathRejectsWrongChannels");
    EXPECT_THROW(conv.infer_into(bad, out, ws), std::invalid_argument);
  }
  const Workspace::Stats st = ws.stats();
  EXPECT_EQ(st.hits + st.misses, 0u);
  EXPECT_EQ(st.outstanding, 0u);
  // The kernel helper checks the weight against the input on its own.
  Tensor padded;
  std::vector<float> dst(5 * 36);
  const Tensor weight = Tensor::randn({5, 4 * 9}, rng);
  const Tensor bias({5, 1});
  EXPECT_THROW(conv3x3_into(bad, 0, weight, bias.data(), false, padded,
                            dst.data()),
               std::invalid_argument);
}

#if DCSR_ALLOC_CHECK
TEST(CheckedAlloc, ContainerShapeErrorsSurfaceAsInvalidArgument) {
  // Sequential sizes its intermediates with out_shape inside its hot-path
  // guard. A layer's shape error thrown there must reach the caller as the
  // std::invalid_argument it is, not be masked by a HotPathAllocError from
  // building the exception message.
  set_alloc_check_enabled(true);
  Rng rng(39);
  Workspace ws;
  Tensor out;
  const auto expect_shape_error = [&](Sequential& seq, const Tensor& x) {
    EXPECT_THROW(seq.infer_into(x, out, ws), std::invalid_argument)
        << seq.layer(0).name();
    EXPECT_EQ(hot_path_depth(), 0);
  };
  {
    Sequential seq;
    seq.emplace<Linear>(24, 7, rng);
    seq.emplace<ReLU>();
    expect_shape_error(seq, Tensor({3, 10}));
  }
  const Tensor odd_channels({1, 3, 4, 4});  // not divisible by 2^2
  const Tensor flat({1, 12});               // not NCHW
  {
    Sequential seq;
    seq.emplace<PixelShuffle>(2);
    seq.emplace<ReLU>();
    expect_shape_error(seq, odd_channels);
  }
  {
    Sequential seq;
    seq.emplace<BilinearUpsample>(2);
    seq.emplace<ReLU>();
    expect_shape_error(seq, flat);
  }
  {
    Sequential seq;
    seq.emplace<UpsampleNearest>(2);
    seq.emplace<ReLU>();
    expect_shape_error(seq, flat);
  }
  {
    Sequential seq;
    seq.emplace<Flatten>();
    seq.emplace<ReLU>();
    expect_shape_error(seq, flat);
  }
  {
    Sequential seq;
    seq.emplace<Reshape4>(2, 2, 2);
    seq.emplace<ReLU>();
    expect_shape_error(seq, flat);  // 12 elements per item, not 8
  }
}
#endif  // DCSR_ALLOC_CHECK

// ---------------------------------------------------------------------------
// Checked-build negative tests for the finiteness scan: FiniteCheckGuard
// must fire, naming the layer, the moment a non-finite value crosses a layer
// boundary. Compiled out of release builds (tools/run_checks.sh's `checked`
// leg runs them with every check on).
// ---------------------------------------------------------------------------

#if DCSR_FINITE_CHECK
TEST(CheckedFinite, NanWeightTripsGuardNamingLayer) {
  Rng rng(11);
  Linear lin(4, 3, rng);
  lin.params()[0]->value[0] = std::numeric_limits<float>::quiet_NaN();
  const Tensor x = Tensor::randn({2, 4}, rng);
  try {
    (void)lin.infer(x);
    FAIL() << "expected NonFiniteError";
  } catch (const NonFiniteError& e) {
    EXPECT_NE(std::string(e.what()).find("Linear"), std::string::npos)
        << e.what();
  }
}

TEST(CheckedFinite, InfInputTripsGuardInsideSequential) {
  Rng rng(12);
  Sequential net;
  net.add(std::make_unique<Linear>(4, 4, rng));
  net.add(std::make_unique<ReLU>());
  Tensor x = Tensor::randn({1, 4}, rng);
  x[2] = std::numeric_limits<float>::infinity();
  EXPECT_THROW((void)net.infer(x), NonFiniteError);
}

TEST(CheckedFinite, FiniteInferencePassesUnchanged) {
  // The guard is a pure observer: a healthy model must be untouched by it.
  Rng rng(13);
  Linear lin(4, 3, rng);
  const Tensor x = Tensor::randn({2, 4}, rng);
  EXPECT_NO_THROW((void)lin.infer(x));
}

#if DCSR_POISON_WORKSPACE
TEST(CheckedFinite, StaleWorkspaceReadTripsGuard) {
  // The two checks compose: a kernel that forgets to write part of its
  // workspace checkout reads signalling NaN (poison), and the finiteness
  // scan converts that into a typed error naming the layer instead of
  // letting garbage propagate downstream.
  Rng rng(14);
  const Linear lin(4, 3, rng);
  Workspace ws;
  WorkspaceTensor stale = ws.acquire({2, 3});  // never written: all poison
  EXPECT_THROW(FiniteCheckGuard::verify(lin, *stale), NonFiniteError);
}
#endif  // DCSR_POISON_WORKSPACE
#endif  // DCSR_FINITE_CHECK

}  // namespace
}  // namespace dcsr::nn
