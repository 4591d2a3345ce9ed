#include "ops/group_layout.h"

#include <bit>
#include <cstring>

#include "common/logging.h"
#include "rts/tuple.h"

namespace gigascope::ops {

using expr::AggFn;
using expr::Value;
using gsql::DataType;

namespace {

constexpr uint32_t kNoText = UINT32_MAX;

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// The word a packed fixed-width field holds.
uint64_t WordAt(DataType type, const uint8_t* p) {
  switch (type) {
    case DataType::kBool: return p[0];
    case DataType::kIp: return Load32(p);
    default: return Load64(p);
  }
}

/// Encoded width of a fixed-width field.
size_t Width(DataType type) {
  return *rts::TupleCodec::FixedTypeWidth(type);
}

template <typename T>
int Cmp3(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// Value::Compare on two words of `type`.
int CompareWords(DataType type, uint64_t a, uint64_t b) {
  switch (type) {
    case DataType::kInt:
      return Cmp3(static_cast<int64_t>(a), static_cast<int64_t>(b));
    case DataType::kFloat:
      return Cmp3(std::bit_cast<double>(a), std::bit_cast<double>(b));
    default:
      return Cmp3(a, b);
  }
}

int CompareText(std::string_view a, std::string_view b) {
  return Cmp3(a.compare(b), 0);
}

/// The text of a packed STRING field at `p`.
std::string_view TextAt(const uint8_t* p) {
  return std::string_view(reinterpret_cast<const char*>(p) + sizeof(uint32_t),
                          Load32(p));
}

/// Maps FLOAT bits onto unsigned integers in IEEE-754 totalOrder.
uint64_t TotalOrderBits(uint64_t bits) {
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

}  // namespace

FoldArg FoldArg::Of(const Value& value) {
  FoldArg arg;
  switch (value.type()) {
    case DataType::kBool: arg.word = value.bool_value() ? 1 : 0; break;
    case DataType::kInt:
      arg.word = static_cast<uint64_t>(value.int_value());
      break;
    case DataType::kUint: arg.word = value.uint_value(); break;
    case DataType::kFloat:
      arg.word = std::bit_cast<uint64_t>(value.float_value());
      break;
    case DataType::kIp: arg.word = value.ip_value(); break;
    case DataType::kString: arg.text = value.string_value(); break;
  }
  return arg;
}

GroupLayout::GroupLayout(std::vector<DataType> key_types,
                         std::vector<expr::AggregateSpec> specs)
    : key_types_(std::move(key_types)), specs_(std::move(specs)) {
  size_t offset = 0;
  for (DataType type : key_types_) {
    key_offsets_.push_back(offset);
    if (type == DataType::kString) break;
    offset += Width(type);
  }
  if (key_offsets_.size() == key_types_.size()) key_offsets_.push_back(offset);
  for (DataType type : key_types_) {
    min_key_size_ +=
        type == DataType::kString ? sizeof(uint32_t) : Width(type);
  }
  for (const expr::AggregateSpec& spec : specs_) {
    GS_CHECK(spec.fn != AggFn::kAvg && "AVG must be decomposed by the planner");
    const bool text = spec.fn != AggFn::kCount &&
                      spec.result_type == DataType::kString;
    GS_CHECK(!text || spec.fn == AggFn::kMin || spec.fn == AggFn::kMax);
    text_cell_.push_back(text ? static_cast<uint32_t>(num_texts_++)
                              : kNoText);
    if (!text) {
      fixed_cell_bytes_ +=
          spec.fn == AggFn::kCount ? sizeof(uint64_t) : Width(spec.result_type);
    }
  }
}

ByteSpan GroupLayout::KeyField(ByteSpan key, size_t i) const {
  // Offsets are fixed up to the first STRING; past it, walk the lengths.
  size_t f = i < key_offsets_.size() ? i : key_offsets_.size() - 1;
  size_t pos = key_offsets_[f];
  for (; f < i; ++f) {
    pos += key_types_[f] == DataType::kString
               ? sizeof(uint32_t) + Load32(key.data() + pos)
               : Width(key_types_[f]);
  }
  const size_t width = key_types_[i] == DataType::kString
                           ? sizeof(uint32_t) + Load32(key.data() + pos)
                           : Width(key_types_[i]);
  return key.substr(pos, width);
}

uint64_t GroupLayout::KeyHash(ByteSpan key) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  const uint8_t* p = key.data();
  for (DataType type : key_types_) {
    uint64_t field_hash;
    switch (type) {
      case DataType::kBool:
        field_hash = Fnv1a64(p, 1);
        p += 1;
        break;
      case DataType::kIp: {
        const uint64_t widened = Load32(p);  // Value::Hash hashes 8 bytes
        field_hash = Fnv1a64(&widened, sizeof(widened));
        p += sizeof(uint32_t);
        break;
      }
      case DataType::kString: {
        const uint32_t len = Load32(p);
        field_hash = Fnv1a64(p + sizeof(len), len);
        p += sizeof(len) + len;
        break;
      }
      default:
        field_hash = Fnv1a64(p, sizeof(uint64_t));
        p += sizeof(uint64_t);
        break;
    }
    h ^= field_hash;
    h *= 0x100000001b3ULL;
  }
  return h;
}

int GroupLayout::CompareField(size_t i, ByteSpan a, ByteSpan b) const {
  const DataType type = key_types_[i];
  if (type == DataType::kString) {
    return CompareText(TextAt(a.data()), TextAt(b.data()));
  }
  return CompareWords(type, WordAt(type, a.data()), WordAt(type, b.data()));
}

bool GroupLayout::KeyLess(ByteSpan a, ByteSpan b) const {
  const uint8_t* pa = a.data();
  const uint8_t* pb = b.data();
  for (DataType type : key_types_) {
    if (type == DataType::kString) {
      const std::string_view ta = TextAt(pa);
      const std::string_view tb = TextAt(pb);
      if (int cmp = CompareText(ta, tb); cmp != 0) return cmp < 0;
      pa += sizeof(uint32_t) + ta.size();
      pb += sizeof(uint32_t) + tb.size();
      continue;
    }
    uint64_t x = WordAt(type, pa);
    uint64_t y = WordAt(type, pb);
    if (x != y) {
      switch (type) {
        case DataType::kInt:
          return static_cast<int64_t>(x) < static_cast<int64_t>(y);
        case DataType::kFloat:
          return TotalOrderBits(x) < TotalOrderBits(y);
        default:
          return x < y;
      }
    }
    pa += Width(type);
    pb += Width(type);
  }
  return false;
}

void GroupLayout::Start(uint64_t* words, std::string* texts,
                        const FoldArg* args, uint64_t weight) const {
  for (size_t a = 0; a < specs_.size(); ++a) {
    const AggFn fn = specs_[a].fn;
    if (fn == AggFn::kMin || fn == AggFn::kMax) {
      if (text_cell_[a] != kNoText) {
        texts[text_cell_[a]].assign(args[a].text);
      } else {
        words[a] = args[a].word;
      }
    } else {
      words[a] = 0;  // also 0.0 for a FLOAT SUM
    }
  }
  Fold(words, texts, args, weight);
}

void GroupLayout::Fold(uint64_t* words, std::string* texts,
                       const FoldArg* args, uint64_t weight) const {
  for (size_t a = 0; a < specs_.size(); ++a) {
    const expr::AggregateSpec& spec = specs_[a];
    switch (spec.fn) {
      case AggFn::kCount:
        words[a] += weight;
        break;
      case AggFn::kSum:
        if (spec.result_type == DataType::kFloat) {
          words[a] = std::bit_cast<uint64_t>(
              std::bit_cast<double>(words[a]) +
              std::bit_cast<double>(args[a].word) *
                  static_cast<double>(weight));
        } else {
          // INT and UINT alike add modulo 2^64, as the VM does.
          words[a] += args[a].word * weight;
        }
        break;
      case AggFn::kMin:
      case AggFn::kMax: {
        const uint32_t text = text_cell_[a];
        const int cmp =
            text != kNoText
                ? CompareText(args[a].text, texts[text])
                : CompareWords(spec.result_type, args[a].word, words[a]);
        if ((spec.fn == AggFn::kMin && cmp < 0) ||
            (spec.fn == AggFn::kMax && cmp > 0)) {
          if (text != kNoText) {
            texts[text].assign(args[a].text);
          } else {
            words[a] = args[a].word;
          }
        }
        break;
      }
      case AggFn::kAvg:
        break;  // rejected by the constructor
    }
  }
}

void GroupLayout::Emit(ByteSpan key, const uint64_t* words,
                       const std::string* texts, ByteBuffer* out) const {
  size_t size = key.size() + fixed_cell_bytes_;
  for (size_t t = 0; t < num_texts_; ++t) {
    size += sizeof(uint32_t) + texts[t].size();
  }
  const size_t start = out->size();
  out->resize(start + size);
  uint8_t* p = out->data() + start;
  if (!key.empty()) std::memcpy(p, key.data(), key.size());
  p += key.size();
  for (size_t a = 0; a < specs_.size(); ++a) {
    const DataType type = specs_[a].fn == AggFn::kCount
                              ? DataType::kUint
                              : specs_[a].result_type;
    switch (type) {
      case DataType::kBool:
        *p++ = words[a] != 0 ? 1 : 0;
        break;
      case DataType::kIp: {
        const uint32_t v = static_cast<uint32_t>(words[a]);
        std::memcpy(p, &v, sizeof(v));
        p += sizeof(v);
        break;
      }
      case DataType::kString: {
        const std::string& s = texts[text_cell_[a]];
        const uint32_t len = static_cast<uint32_t>(s.size());
        std::memcpy(p, &len, sizeof(len));
        if (len > 0) std::memcpy(p + sizeof(len), s.data(), len);
        p += sizeof(len) + len;
        break;
      }
      default:
        std::memcpy(p, &words[a], sizeof(uint64_t));
        p += sizeof(uint64_t);
        break;
    }
  }
}

}  // namespace gigascope::ops
