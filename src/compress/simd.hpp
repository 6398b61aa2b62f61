/**
 * @file
 * Compatibility shim, kept only for the end-to-end benchmark program
 * (perfbench/), which still prints a codec dispatch level in its host
 * line. The byte-mask codec has one plain kernel, so there is one
 * level. Delete this file once that program stops asking.
 */

#ifndef GSCALAR_COMPRESS_SIMD_HPP
#define GSCALAR_COMPRESS_SIMD_HPP

namespace gs
{

/** The one codec kernel level. */
enum class SimdLevel
{
    None
};

inline SimdLevel
activeSimdLevel()
{
    return SimdLevel::None;
}

inline const char *
simdLevelName(SimdLevel)
{
    return "none";
}

} // namespace gs

#endif // GSCALAR_COMPRESS_SIMD_HPP
