/**
 * @file
 * Identity of a register-file compression codec. Lives in common (not
 * compress) because ArchConfig carries the selected codec: the run
 * cache, the coalescing map and the disk store all key on the config
 * fingerprint, so the choice must be part of the config itself.
 *
 * The codec implementations sit behind gs::compress::Codec
 * (compress/codec.hpp); this header only names them and resolves the
 * process-wide default from $GS_CODEC / --codec in the strict
 * parse-and-fail-eagerly GS_JOBS idiom.
 */

#ifndef GSCALAR_COMMON_CODEC_ID_HPP
#define GSCALAR_COMMON_CODEC_ID_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace gs
{

/** Registered register-file compression codecs. */
enum class CodecId : std::uint32_t
{
    ByteMask = 0,      ///< the paper's common-MSB byte-mask scheme (§3)
    Bdi = 1,           ///< Warped-Compression base-delta-immediate
    StaticProfile = 2, ///< profile-guided fixed encodings (2006.05693)
    Rrcd = 3,          ///< byte-mask + stuck-fault redirection (2105.03859)
};

/** Number of registered codecs (CodecId values are 0..kNumCodecs-1). */
inline constexpr unsigned kNumCodecs = 4;

/** Spec name of a codec ("byte-mask", "bdi", ...). */
const char *codecIdName(CodecId id);

/** Parse a --codec/GS_CODEC value; empty optional on unknown names. */
std::optional<CodecId> parseCodecId(std::string_view name);

/** Comma-separated list of every codec name (error messages, --help). */
std::string codecIdList();

/**
 * The codec new top-level runs select: the setDefaultCodecId()
 * override if present, else $GS_CODEC, else ByteMask. $GS_CODEC is
 * validated on the first call either way (unknown names are fatal, in
 * the GS_JOBS idiom). Entry points apply this to the configs they
 * build; ArchConfig itself always defaults to ByteMask so
 * deserialization and tests stay hermetic.
 */
CodecId defaultCodecId();

/** Pin the default codec, overriding $GS_CODEC (--codec does this). */
void setDefaultCodecId(CodecId id);

/** Drop the setDefaultCodecId() override ($GS_CODEC applies again). */
void clearDefaultCodecIdOverride();

} // namespace gs

#endif // GSCALAR_COMMON_CODEC_ID_HPP
