#include "nn/serialize.hpp"

#include <stdexcept>
#include <string>

namespace dcsr::nn {

namespace {
constexpr std::uint32_t kMagic = 0x64635352;      // "dcSR"
constexpr std::uint32_t kMagicFp16 = 0x64635348;  // "dcSH"

// Reads one parameter's rank byte and dims, comparing each against `shape`
// as it is read; throws std::invalid_argument("<what>: shape mismatch") at
// the first difference.
void read_matching_shape(ByteReader& in, const Shape& shape, const char* what) {
  bool match = in.read_u8() == shape.rank();
  for (std::size_t d = 0; match && d < shape.rank(); ++d)
    match = in.read_u32() == static_cast<std::uint32_t>(shape[d]);
  if (!match) throw std::invalid_argument(std::string(what) + ": shape mismatch");
}
}  // namespace

void save_params(Module& model, ByteWriter& out) {
  const auto params = model.params();
  out.write_u32(kMagic);
  out.write_u32(static_cast<std::uint32_t>(params.size()));
  for (Param* p : params) {
    const auto& shape = p->value.shape();
    out.write_u8(static_cast<std::uint8_t>(shape.size()));
    for (int d : shape) out.write_u32(static_cast<std::uint32_t>(d));
    out.write_f32_span(p->value.data(), p->value.size());
  }
}

void load_params(Module& model, ByteReader& in) {
  if (in.read_u32() != kMagic)
    throw std::invalid_argument("load_params: bad magic");
  const auto params = model.params();
  const auto n = in.read_u32();
  if (n != params.size())
    throw std::invalid_argument("load_params: parameter count mismatch");
  for (Param* p : params) {
    read_matching_shape(in, p->value.shape(), "load_params");
    in.read_f32_span(p->value.data(), p->value.size());
  }
}

std::uint64_t serialized_size(Module& model) {
  std::uint64_t bytes = 8;  // magic + count
  for (Param* p : model.params()) {
    bytes += 1 + 4 * p->value.shape().size();  // rank byte + dims
    bytes += 4 * static_cast<std::uint64_t>(p->value.size());
  }
  return bytes;
}

std::uint16_t float_to_half(float v) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const std::int32_t exp = static_cast<std::int32_t>((bits >> 23) & 0xff) - 127;
  std::uint32_t mant = bits & 0x7fffffu;

  if (exp == 128) return static_cast<std::uint16_t>(sign | 0x7c00u | (mant ? 0x200u : 0));
  if (exp > 15) return static_cast<std::uint16_t>(sign | 0x7c00u);  // overflow -> inf
  if (exp >= -14) {
    // Normal half; round mantissa to 10 bits, nearest-even.
    std::uint32_t half_mant = mant >> 13;
    const std::uint32_t rem = mant & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (half_mant & 1u))) ++half_mant;
    std::uint32_t half_exp = static_cast<std::uint32_t>(exp + 15);
    if (half_mant == 0x400u) {  // mantissa rounded over: bump exponent
      half_mant = 0;
      ++half_exp;
      if (half_exp >= 31) return static_cast<std::uint16_t>(sign | 0x7c00u);
    }
    return static_cast<std::uint16_t>(sign | (half_exp << 10) | half_mant);
  }
  if (exp >= -24) {
    // Subnormal half: value = mant24 * 2^(exp-23) = half_mant * 2^-24,
    // so half_mant = mant24 >> (-exp - 1).
    mant |= 0x800000u;  // implicit leading 1
    const int shift = -exp - 1;
    std::uint32_t half_mant = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1);
    const std::uint32_t half_point = 1u << (shift - 1);
    if (rem > half_point || (rem == half_point && (half_mant & 1u))) ++half_mant;
    if (half_mant >= 0x400u) return static_cast<std::uint16_t>(sign | (1u << 10));
    return static_cast<std::uint16_t>(sign | half_mant);
  }
  return static_cast<std::uint16_t>(sign);  // underflow -> signed zero
}

float half_to_float(std::uint16_t h) noexcept {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;
  std::uint32_t bits;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // zero
    } else {
      // Subnormal: normalise.
      int e = -1;
      std::uint32_t m = mant;
      while ((m & 0x400u) == 0) {
        m <<= 1;
        ++e;
      }
      bits = sign | static_cast<std::uint32_t>(127 - 15 - e) << 23 |
             ((m & 0x3ffu) << 13);
    }
  } else if (exp == 31) {
    bits = sign | 0x7f800000u | (mant << 13);  // inf / NaN
  } else {
    bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void save_params_fp16(Module& model, ByteWriter& out) {
  const auto params = model.params();
  out.write_u32(kMagicFp16);
  out.write_u32(static_cast<std::uint32_t>(params.size()));
  for (Param* p : params) {
    const auto& shape = p->value.shape();
    out.write_u8(static_cast<std::uint8_t>(shape.size()));
    for (int d : shape) out.write_u32(static_cast<std::uint32_t>(d));
    for (std::size_t i = 0; i < p->value.size(); ++i)
      out.write_u16(float_to_half(p->value[i]));
  }
}

void load_params_fp16(Module& model, ByteReader& in) {
  if (in.read_u32() != kMagicFp16)
    throw std::invalid_argument("load_params_fp16: bad magic");
  const auto params = model.params();
  const auto n = in.read_u32();
  if (n != params.size())
    throw std::invalid_argument("load_params_fp16: parameter count mismatch");
  for (Param* p : params) {
    read_matching_shape(in, p->value.shape(), "load_params_fp16");
    for (std::size_t i = 0; i < p->value.size(); ++i)
      p->value[i] = half_to_float(in.read_u16());
  }
}

std::uint64_t serialized_size_fp16(Module& model) {
  std::uint64_t bytes = 8;
  for (Param* p : model.params()) {
    bytes += 1 + 4 * p->value.shape().size();
    bytes += 2 * static_cast<std::uint64_t>(p->value.size());
  }
  return bytes;
}

void copy_params(Module& src, Module& dst) {
  const auto a = src.params();
  const auto b = dst.params();
  if (a.size() != b.size())
    throw std::invalid_argument("copy_params: parameter count mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i]->value.same_shape(b[i]->value))
      throw std::invalid_argument("copy_params: shape mismatch");
    b[i]->value = a[i]->value;
  }
}

}  // namespace dcsr::nn
