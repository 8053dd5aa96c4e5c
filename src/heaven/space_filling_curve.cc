#include "heaven/space_filling_curve.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <string>

#include "common/logging.h"

namespace heaven {

namespace {

/// Z-order (Morton) key: interleaves the low `bits_per_dim` bits of each
/// origin-shifted coordinate, MSB-first. Coordinates below the origin
/// clamp to zero; the usable bits are capped so the key fits in 64 bits.
uint64_t ZOrderKey(const MdPoint& p, const MdPoint& origin,
                   int bits_per_dim) {
  HEAVEN_CHECK(p.dims() == origin.dims());
  const size_t dims = p.dims();
  HEAVEN_CHECK(dims > 0);
  const int usable_bits =
      std::min<int>(bits_per_dim, static_cast<int>(64 / dims));
  uint64_t key = 0;
  for (int bit = usable_bits - 1; bit >= 0; --bit) {
    for (size_t d = 0; d < dims; ++d) {
      const int64_t shifted = p[d] - origin[d];
      const uint64_t coord =
          shifted < 0 ? 0 : static_cast<uint64_t>(shifted);
      key = (key << 1) | ((coord >> bit) & 1);
    }
  }
  return key;
}

class ZOrderCurve final : public SpaceFillingCurve {
 public:
  CurveKind kind() const override { return CurveKind::kZOrder; }
  std::string_view name() const override { return "zorder"; }

  uint64_t Key(const MdPoint& p, const MdPoint& origin,
               int bits_per_dim) const override {
    return ZOrderKey(p, origin, bits_per_dim);
  }
};

/// Hilbert curve via Skilling's transpose algorithm ("Programming the
/// Hilbert curve", AIP 2004): undo the excess-work transform, Gray-code,
/// then interleave the transposed coordinate bits MSB-first. Compared to
/// Z-order the Hilbert key never jumps between distant cells of the same
/// level, which tightens the locality of tile runs on tape.
class HilbertCurve final : public SpaceFillingCurve {
 public:
  CurveKind kind() const override { return CurveKind::kHilbert; }
  std::string_view name() const override { return "hilbert"; }

  uint64_t Key(const MdPoint& p, const MdPoint& origin,
               int bits_per_dim) const override {
    HEAVEN_CHECK(p.dims() == origin.dims());
    const size_t dims = p.dims();
    HEAVEN_CHECK(dims > 0);
    const int usable_bits = std::max<int>(
        1, std::min<int>(bits_per_dim, static_cast<int>(64 / dims)));

    constexpr size_t kMaxDims = 64;
    HEAVEN_CHECK(dims <= kMaxDims);
    std::array<uint64_t, kMaxDims> x{};
    const uint64_t coord_mask = usable_bits >= 64
                                    ? ~uint64_t{0}
                                    : (uint64_t{1} << usable_bits) - 1;
    for (size_t d = 0; d < dims; ++d) {
      const int64_t shifted = p[d] - origin[d];
      x[d] = (shifted < 0 ? 0 : static_cast<uint64_t>(shifted)) & coord_mask;
    }

    // Axes → transpose (Skilling). After this, bit `b` of x[d] is bit
    // (b * dims + d) of the Hilbert index, MSB-first.
    const uint64_t top = uint64_t{1} << (usable_bits - 1);
    for (uint64_t q = top; q > 1; q >>= 1) {
      const uint64_t mask = q - 1;
      for (size_t d = 0; d < dims; ++d) {
        if (x[d] & q) {
          x[0] ^= mask;  // invert low bits of axis 0
        } else {
          const uint64_t t = (x[0] ^ x[d]) & mask;
          x[0] ^= t;
          x[d] ^= t;
        }
      }
    }
    for (size_t d = 1; d < dims; ++d) x[d] ^= x[d - 1];
    uint64_t t = 0;
    for (uint64_t q = top; q > 1; q >>= 1) {
      if (x[dims - 1] & q) t ^= q - 1;
    }
    for (size_t d = 0; d < dims; ++d) x[d] ^= t;

    uint64_t key = 0;
    for (int bit = usable_bits - 1; bit >= 0; --bit) {
      for (size_t d = 0; d < dims; ++d) {
        key = (key << 1) | ((x[d] >> bit) & 1);
      }
    }
    return key;
  }
};

}  // namespace

const SpaceFillingCurve& GetCurve(CurveKind kind) {
  static const ZOrderCurve zorder;
  static const HilbertCurve hilbert;
  switch (kind) {
    case CurveKind::kZOrder:
      return zorder;
    case CurveKind::kHilbert:
      return hilbert;
  }
  return zorder;
}

std::string_view CurveKindName(CurveKind kind) {
  return GetCurve(kind).name();
}

std::optional<CurveKind> ParseCurveKind(std::string_view name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  if (lower == "zorder" || lower == "z-order" || lower == "z") {
    return CurveKind::kZOrder;
  }
  if (lower == "hilbert") return CurveKind::kHilbert;
  return std::nullopt;
}

std::optional<CurveKind> CurveKindFromByte(uint8_t value) {
  switch (value) {
    case 0:
      return CurveKind::kZOrder;
    case 1:
      return CurveKind::kHilbert;
  }
  return std::nullopt;
}

}  // namespace heaven
