/**
 * @file
 * Textual serialization of PIR programs (`.pir` seed files).
 *
 * The format is a deterministic, line-oriented token stream covering
 * every field of pir::Program, so a parsed program is structurally
 * identical to the one written (write -> read -> write is a fixpoint).
 * The fuzzing harness (src/fuzz) uses it to persist shrunk failing
 * programs as standalone reproducers that replay as ordinary tests;
 * it is equally usable for dumping any Builder-constructed program.
 *
 * Enums are serialized as integers for parser stability; a pretty
 * `Program::dump()` rendering is appended as trailing '#' comments for
 * human readers and ignored on parse.
 */

#ifndef PLAST_PIR_SERIALIZE_HPP
#define PLAST_PIR_SERIALIZE_HPP

#include <iosfwd>
#include <string>

#include "pir/ir.hpp"

namespace plast
{
class TextWriter;
class TextReader;
} // namespace plast

namespace plast::pir
{

/** Write `prog` as a .pir text document. */
void writeProgram(std::ostream &os, const Program &prog);

/** Convenience: writeProgram into a string. */
std::string programToText(const Program &prog);

/**
 * Parse a .pir document. Returns true on success; on failure returns
 * false and, when `err` is non-null, stores a diagnostic. The parsed
 * program is NOT validated — callers that execute it should run
 * pir::validateProgram first (the fuzz replay path does).
 */
bool readProgram(std::istream &is, Program &out, std::string *err = nullptr);

/** The .pir field walk itself, for formats that embed a program (fuzz
 *  seed files). */
void programFields(TextWriter &ar, const Program &prog);
void programFields(TextReader &ar, Program &prog);

} // namespace plast::pir

#endif // PLAST_PIR_SERIALIZE_HPP
