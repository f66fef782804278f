// Columnar serialization of statsdb ResultSets for the wire protocol.
//
// A kResultSet frame body is:
//
//   u32 ncols
//   ncols x { u32-len name | u8 declared DataType }
//   u64 nrows
//   ncols x column block
//
// Column block:
//   u8 encoding (ColumnEncoding)
//   u8 has_nulls; when 1, ceil(nrows/64) u64 null-bitmap words (bit set
//      => NULL). kAllNull requires has_nulls=1 whenever nrows > 0 so a
//      decoder can bound nrows by actual payload; kTagged never writes a
//      bitmap (nulls travel as value tags).
//   encoding-specific data:
//     kAllNull   nothing
//     kBool      ceil(nrows/8) bit-packed bytes
//     kInt64     nrows x 8B LE
//     kDouble    nrows x 8B IEEE-754 bit pattern
//     kDict      u32 dict_size | dict_size x u32-len string |
//                nrows x u32 LE code (only codes actually used ship;
//                they are remapped to a frame-local dictionary)
//     kTagged    nrows x tagged Value (wire.h codec; exact runtime types)
//
// Data bytes at null positions of fixed encodings are unspecified and
// ignored by the decoder.
//
// The encoder picks the encoding by scanning the column's *actual* cell
// types, not the declared schema type: post-aggregation columns can hold
// runtime types that differ from the declaration (e.g. an int column
// averaged into doubles), and the equivalence lane requires the decoded
// ResultSet to render byte-identical CSV. A column whose non-null cells
// are uniformly one primitive type gets the native encoding; mixed
// columns fall back to kTagged.

#ifndef FF_NET_SERIALIZE_H_
#define FF_NET_SERIALIZE_H_

#include <cstdint>

#include "net/wire.h"
#include "statsdb/query.h"
#include "util/statusor.h"

namespace ff {
namespace net {

enum class ColumnEncoding : uint8_t {
  kAllNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kDict = 4,
  kTagged = 5,
};

/// Appends the schema header (ncols + name/type pairs) to `w`.
void EncodeSchema(const statsdb::Schema& schema, WireWriter* w);

/// Reads a schema header.
util::StatusOr<statsdb::Schema> DecodeSchema(WireReader* r);

/// Serializes a full ResultSet (schema + rows) into `w`.
void EncodeResultSet(const statsdb::ResultSet& rs, WireWriter* w);

/// Inverse of EncodeResultSet. Decoded Values are bit-exact copies of
/// the originals (doubles included), so ToCsv() matches byte-for-byte.
util::StatusOr<statsdb::ResultSet> DecodeResultSet(WireReader* r);

/// Decodes one column block into `n` materialized Values. Allocation is
/// bounded by bytes actually present in the frame (every encoding's
/// payload is Need()-checked before buffers are sized), so truncated or
/// lying headers fail with ParseError instead of over-allocating.
util::Status DecodeColumn(WireReader* r, size_t n,
                          std::vector<statsdb::Value>* out);

}  // namespace net
}  // namespace ff

#endif  // FF_NET_SERIALIZE_H_
