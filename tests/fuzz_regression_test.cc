// Unit repros for the decode-surface bugs the fuzz harnesses (fuzz/) are
// built to catch: declared-count reserve bombs, unchecked size
// multiplications and unbounded parser recursion. Each test feeds the
// minimized hostile input and expects a clean Corruption/InvalidArgument
// — never an abort, OOM or stack overflow. The same inputs live on as
// corpus entries under fuzz/corpus/*/regress_*.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "array/compression.h"
#include "array/md_interval.h"
#include "array/mdd.h"
#include "common/bitvector.h"
#include "common/coding.h"
#include "common/json.h"
#include "heaven/bitmap_index.h"
#include "heaven/super_tile.h"
#include "rasql/parser.h"
#include "storage/serialize.h"

namespace heaven {
namespace {

TEST(FuzzRegressionTest, BitVectorHugeWordCountIsCorruption) {
  // bits=0, ones=0, nwords=2^32-1 with no words behind it: the declared
  // count must be bounded by the payload before reserve().
  std::string image;
  PutFixed64(&image, 0);
  PutFixed64(&image, 0);
  PutFixed32(&image, 0xffffffffu);
  Decoder dec(image);
  Result<WahBitVector> vec = WahBitVector::Deserialize(&dec);
  ASSERT_FALSE(vec.ok());
  EXPECT_EQ(vec.status().code(), StatusCode::kCorruption);
}

TEST(FuzzRegressionTest, BitVectorOnesMismatchIsCorruption) {
  // Found by fuzz_bitvector: an empty vector whose header claims
  // ones=0x990000 deserialized fine, then every count-based consumer
  // (bitmap-index pruning) disagreed with the actual bits. The decoder
  // must recompute the population count and reject the mismatch. Lives
  // on as fuzz/corpus/bitvector/regress_ones_mismatch.bin.
  std::string image;
  PutFixed64(&image, 0);          // bits
  PutFixed64(&image, 0x990000u);  // ones: inconsistent with the words
  PutFixed32(&image, 0);          // nwords
  PutFixed32(&image, 0);          // tail
  PutFixed32(&image, 0);          // tail_bits
  Decoder dec(image);
  Result<WahBitVector> vec = WahBitVector::Deserialize(&dec);
  ASSERT_FALSE(vec.ok());
  EXPECT_EQ(vec.status().code(), StatusCode::kCorruption);
}

TEST(FuzzRegressionTest, BitVectorTailGarbageIsCorruption) {
  // Same surface: bits set in the tail word above tail_bits would
  // survive a round-trip but disagree with Test()/CountRange().
  std::string image;
  PutFixed64(&image, 3);           // bits
  PutFixed64(&image, 1);           // ones
  PutFixed32(&image, 0);           // nwords
  PutFixed32(&image, 0xfffffff1u); // tail: garbage above bit 2
  PutFixed32(&image, 3);           // tail_bits
  Decoder dec(image);
  Result<WahBitVector> vec = WahBitVector::Deserialize(&dec);
  ASSERT_FALSE(vec.ok());
  EXPECT_EQ(vec.status().code(), StatusCode::kCorruption);
}

TEST(FuzzRegressionTest, JsonDeepNestingIsError) {
  std::string object_bomb;
  for (int i = 0; i < 100'000; ++i) object_bomb += "{\"k\":";
  const std::string bombs[] = {std::string(100'000, '['), object_bomb};
  for (const std::string& bomb : bombs) {
    Result<JsonValue> value = ParseJson(bomb);
    ASSERT_FALSE(value.ok());
    EXPECT_NE(value.status().message().find("nesting too deep"),
              std::string::npos)
        << value.status().message();
  }
}

TEST(FuzzRegressionTest, JsonRawControlCharIsError) {
  // Found by fuzz_json: a raw 0x12 byte inside a key parsed fine, but the
  // dumper escapes it as \u0012 and the old parser could not read that
  // escape back, so Dump(Parse(Dump(v))) diverged. Raw control characters
  // must be rejected (the writer always escapes them). Lives on as
  // fuzz/corpus/json/regress_raw_control.bin.
  const std::string doc = "{\"schema_v\x12""ersion\":2}";
  Result<JsonValue> value = ParseJson(doc);
  ASSERT_FALSE(value.ok());
  EXPECT_NE(value.status().message().find("control character"),
            std::string::npos)
      << value.status().message();
}

TEST(FuzzRegressionTest, JsonUnicodeEscapesRoundTrip) {
  // \uXXXX escapes decode to UTF-8 (including surrogate pairs) and the
  // canonical dump is a fixed point.
  const std::string doc =
      "{\"a\":\"\\u0012x\",\"b\":\"\\ud834\\udd1e\",\"c\":\"caf\\u00e9\"}";
  Result<JsonValue> value = ParseJson(doc);
  ASSERT_TRUE(value.ok()) << value.status().message();
  EXPECT_EQ(value->object.at("a").str, std::string("\x12x"));
  EXPECT_EQ(value->object.at("b").str, "\xf0\x9d\x84\x9e");  // U+1D11E
  EXPECT_EQ(value->object.at("c").str, "caf\xc3\xa9");
  const std::string dumped = DumpJson(*value);
  Result<JsonValue> again = ParseJson(dumped);
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_EQ(DumpJson(*again), dumped);

  // Lone or malformed surrogates are errors, not silent garbage.
  EXPECT_FALSE(ParseJson("\"\\ud834\"").ok());
  EXPECT_FALSE(ParseJson("\"\\udd1e\"").ok());
  EXPECT_FALSE(ParseJson("\"\\uzzzz\"").ok());
}

TEST(FuzzRegressionTest, JsonReasonableNestingStillParses) {
  std::string doc;
  for (int i = 0; i < 40; ++i) doc += "[";
  doc += "1";
  for (int i = 0; i < 40; ++i) doc += "]";
  EXPECT_TRUE(ParseJson(doc).ok());
}

TEST(FuzzRegressionTest, RasqlDeepParensIsError) {
  const std::string query =
      "SELECT " + std::string(100'000, '(') + "1 FROM c";
  Result<rasql::Query> parsed = rasql::Parse(query);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("nesting too deep"),
            std::string::npos)
      << parsed.status().message();

  // The expression entry point shares the depth bound.
  EXPECT_FALSE(rasql::ParseExpression(std::string(100'000, '(')).ok());
}

TEST(FuzzRegressionTest, RasqlReasonableParensStillParse) {
  std::string expr = std::string(40, '(') + "1" + std::string(40, ')');
  EXPECT_TRUE(rasql::ParseExpression(expr).ok());
}

TEST(FuzzRegressionTest, RleExpectedSizeBombIsCorruption) {
  // Two input bytes can expand to at most 128 output bytes; an expected
  // size beyond 64x the payload must be rejected before reserve().
  const std::string tiny("\x81\x00", 2);  // one 128-byte run
  Result<std::string> out =
      Decompress(Compression::kRle, tiny, /*expected_size=*/1ull << 40);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);

  // The legitimate expansion still decodes.
  Result<std::string> good =
      Decompress(Compression::kRle, tiny, /*expected_size=*/128);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->size(), 128u);
}

TEST(FuzzRegressionTest, CheckedCellCountDetectsOverflow) {
  const MdInterval huge(MdPoint({0, 0}),
                        MdPoint({int64_t{1} << 62, int64_t{1} << 62}));
  EXPECT_FALSE(huge.CheckedCellCount().has_value());
  const MdInterval fine(MdPoint({0, 0}), MdPoint({99, 99}));
  ASSERT_TRUE(fine.CheckedCellCount().has_value());
  EXPECT_EQ(*fine.CheckedCellCount(), 10'000u);
}

TEST(FuzzRegressionTest, SuperTileCellCountOverflowIsCorruption) {
  // Hand-build a CRC-valid container whose tile domain's cell product
  // overflows uint64: the decoder must reject it instead of computing a
  // wrapped payload size.
  std::string body;
  PutFixed64(&body, 1);  // supertile id
  PutFixed64(&body, 1);  // object id
  body.push_back(static_cast<char>(CellType::kDouble));
  PutFixed32(&body, 1);  // tile count
  PutFixed64(&body, 1);  // tile id
  const MdInterval huge(MdPoint({0, 0}),
                        MdPoint({int64_t{1} << 62, int64_t{1} << 62}));
  EncodeInterval(&body, huge);
  body.push_back(static_cast<char>(Compression::kNone));
  PutLengthPrefixed(&body, "");

  std::string image;
  PutFixed64(&image, 0x48454156454e5354ULL);  // "HEAVENST"
  PutFixed32(&image, Crc32c(body));
  PutFixed32(&image, static_cast<uint32_t>(body.size()));
  image.append(body);

  Result<SuperTile> tile = SuperTile::Deserialize(image);
  ASSERT_FALSE(tile.ok());
  EXPECT_EQ(tile.status().code(), StatusCode::kCorruption);
}

TEST(FuzzRegressionTest, SuperTileBadCellTypeIsCorruption) {
  std::string body;
  PutFixed64(&body, 1);
  PutFixed64(&body, 1);
  body.push_back(static_cast<char>(0xee));  // not a CellType
  PutFixed32(&body, 0);

  std::string image;
  PutFixed64(&image, 0x48454156454e5354ULL);
  PutFixed32(&image, Crc32c(body));
  PutFixed32(&image, static_cast<uint32_t>(body.size()));
  image.append(body);

  Result<SuperTile> tile = SuperTile::Deserialize(image);
  ASSERT_FALSE(tile.ok());
  EXPECT_EQ(tile.status().code(), StatusCode::kCorruption);
}

TEST(FuzzRegressionTest, RegistryHugeMetaCountIsCorruption) {
  // v3 image declaring 2^56 metas in a 24-byte payload.
  std::string image;
  PutFixed64(&image, 0xffffffffffffffffULL);  // version tag
  PutFixed32(&image, 3);
  PutFixed64(&image, uint64_t{1} << 56);
  Result<std::vector<SuperTileMeta>> metas =
      DeserializeSuperTileMetas(image);
  ASSERT_FALSE(metas.ok());
  EXPECT_EQ(metas.status().code(), StatusCode::kCorruption);
}

TEST(FuzzRegressionTest, RegistryHugeTileCountIsCorruption) {
  // An untagged (v1) image whose one meta declares 2^31 tile ids with no
  // bytes behind: refused as Corruption without a crash or a huge reserve.
  std::string image;
  PutFixed64(&image, 1);  // count (v1: no version tag)
  PutFixed64(&image, 42);  // id
  PutFixed64(&image, 7);   // object id
  PutFixed32(&image, 0);   // medium
  PutFixed64(&image, 0);   // offset
  PutFixed64(&image, 0);   // size
  EncodeInterval(&image, MdInterval(MdPoint({0}), MdPoint({9})));
  PutFixed32(&image, 0x80000000u);  // tile count
  Result<std::vector<SuperTileMeta>> metas =
      DeserializeSuperTileMetas(image);
  ASSERT_FALSE(metas.ok());
  EXPECT_EQ(metas.status().code(), StatusCode::kCorruption);
}

TEST(FuzzRegressionTest, IndexHugeEntryCountIsCorruption) {
  std::string image;
  PutFixed32(&image, 1);            // version
  PutFixed32(&image, 0x80000000u);  // entry count
  Result<SuperTileIndex> index = SuperTileIndex::Deserialize(image);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kCorruption);
}

TEST(FuzzRegressionTest, ObjectDescriptorHugeExtentCountIsCorruption) {
  std::string image;
  PutFixed64(&image, 1);  // object id
  PutFixed64(&image, 1);  // collection id
  PutLengthPrefixed(&image, "obj");
  EncodeInterval(&image, MdInterval(MdPoint({0}), MdPoint({9})));
  image.push_back(static_cast<char>(CellType::kChar));
  PutFixed32(&image, 0x40000000u);  // extent count, nothing behind it
  Decoder dec(image);
  ObjectDescriptor obj;
  const Status status = DecodeObjectDescriptor(&dec, &obj);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace heaven
