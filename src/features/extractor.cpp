#include "features/extractor.hpp"

#include "image/resize.hpp"

namespace dcsr::features {

Tensor make_thumbnail(const FrameRGB& frame, int input_size) {
  const FrameRGB small = resize(frame, input_size, input_size);
  const FrameRGB* batch = &small;
  Tensor t;
  frames_to_tensor_into(&batch, 1, t);
  return t;
}

std::vector<Tensor> make_thumbnails(const std::vector<FrameRGB>& frames,
                                    int input_size) {
  std::vector<Tensor> out;
  out.reserve(frames.size());
  for (const auto& f : frames) out.push_back(make_thumbnail(f, input_size));
  return out;
}

cluster::Dataset extract_features(const Vae& vae, const std::vector<FrameRGB>& frames) {
  cluster::Dataset features;
  features.reserve(frames.size());
  const int S = vae.config().input_size;
  for (const auto& f : frames) {
    const Tensor mu = vae.encode_mu(make_thumbnail(f, S));
    cluster::Point p(mu.size());
    for (std::size_t i = 0; i < mu.size(); ++i) p[i] = mu[i];
    features.push_back(std::move(p));
  }
  return features;
}

cluster::Dataset raw_pixel_features(const std::vector<FrameRGB>& frames,
                                    int input_size) {
  cluster::Dataset features;
  features.reserve(frames.size());
  for (const auto& f : frames) {
    const Tensor t = make_thumbnail(f, input_size);
    cluster::Point p(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) p[i] = t[i];
    features.push_back(std::move(p));
  }
  return features;
}

}  // namespace dcsr::features
