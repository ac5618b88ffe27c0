"""Object-header message codecs (dataspace, layout, fill value, attribute,
symbol table) for the HDF5 subset."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binary import BinaryReader, BinaryWriter
from .constants import (
    LAYOUT_CONTIGUOUS,
    MSG_ATTRIBUTE,
    MSG_DATA_LAYOUT,
    MSG_DATASPACE,
    MSG_DATATYPE,
    MSG_FILL_VALUE,
    MSG_NIL,
    MSG_SYMBOL_TABLE,
    UNDEFINED_ADDRESS,
    pad_to,
)
from .datatypes import decode_datatype, encode_datatype


# --------------------------------------------------------------------------
# Dataspace
# --------------------------------------------------------------------------

def encode_dataspace(shape: tuple[int, ...]) -> bytes:
    """Encode a version-1 simple dataspace message (maxdims = dims)."""
    writer = BinaryWriter()
    writer.u8(1)  # version
    writer.u8(len(shape))  # dimensionality (0 => scalar)
    writer.u8(0x01 if shape else 0x00)  # flags: maxdims present
    writer.zeros(5)
    for dim in shape:
        writer.u64(dim)
    for dim in shape:  # max dimensions equal current dimensions
        writer.u64(dim)
    return writer.getvalue()


def decode_dataspace(reader: BinaryReader) -> tuple[int, ...]:
    """Parse a v1/v2 dataspace message into a shape tuple."""
    version = reader.u8()
    rank = reader.u8()
    flags = reader.u8()
    if version == 1:
        reader.skip(5)
    elif version == 2:
        reader.u8()  # type field
    else:
        raise ValueError(f"unsupported dataspace version: {version}")
    shape = tuple(reader.u64() for _ in range(rank))
    if flags & 0x01:
        for _ in range(rank):
            reader.u64()
    return shape


def dataspace_message_size(shape: tuple[int, ...]) -> int:
    """Encoded size of a dataspace message for *shape*."""
    return 8 + 16 * len(shape)


# --------------------------------------------------------------------------
# Fill value
# --------------------------------------------------------------------------

def encode_fill_value() -> bytes:
    """Encode a version-2 fill-value message declaring "no fill defined"."""
    writer = BinaryWriter()
    writer.u8(2)  # version
    writer.u8(2)  # space allocation time: early
    writer.u8(0)  # fill value write time: on allocation
    writer.u8(0)  # fill value undefined
    return writer.getvalue()


def decode_fill_value(reader: BinaryReader) -> None:
    """Skip over a fill-value message (any version; value ignored)."""
    version = reader.u8()
    if version not in (1, 2, 3):
        raise ValueError(f"unsupported fill value version: {version}")
    if version in (1, 2):
        reader.u8()
        reader.u8()
        defined = reader.u8()
        if version == 1 or defined:
            size = reader.u32()
            reader.skip(size)
    else:
        flags = reader.u8()
        if flags & 0x20:
            size = reader.u32()
            reader.skip(size)


# --------------------------------------------------------------------------
# Data layout (version 3, contiguous)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ContiguousLayout:
    """Contiguous data layout: raw-data address and byte size."""

    data_address: int
    data_size: int


def encode_layout(layout: ContiguousLayout) -> bytes:
    """Encode a v3 contiguous data-layout message."""
    writer = BinaryWriter()
    writer.u8(3)  # version
    writer.u8(LAYOUT_CONTIGUOUS)
    writer.u64(layout.data_address)
    writer.u64(layout.data_size)
    return writer.getvalue()


def decode_layout(reader: BinaryReader) -> ContiguousLayout:
    """Parse a v3 contiguous data-layout message."""
    version = reader.u8()
    if version != 3:
        raise ValueError(f"unsupported data layout version: {version}")
    layout_class = reader.u8()
    if layout_class != LAYOUT_CONTIGUOUS:
        raise ValueError(
            f"unsupported data layout class {layout_class}; "
            "only contiguous storage is implemented"
        )
    address = reader.u64()
    size = reader.u64()
    return ContiguousLayout(address, size)


LAYOUT_MESSAGE_SIZE = 18


# --------------------------------------------------------------------------
# Symbol table (group -> B-tree + heap)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolTableInfo:
    """Symbol-table message payload: group B-tree and heap addresses."""

    btree_address: int
    heap_address: int


def encode_symbol_table(info: SymbolTableInfo) -> bytes:
    """Encode a symbol-table message."""
    writer = BinaryWriter()
    writer.u64(info.btree_address)
    writer.u64(info.heap_address)
    return writer.getvalue()


def decode_symbol_table(reader: BinaryReader) -> SymbolTableInfo:
    """Parse a symbol-table message."""
    return SymbolTableInfo(reader.u64(), reader.u64())


SYMBOL_TABLE_MESSAGE_SIZE = 16


# --------------------------------------------------------------------------
# Attributes
# --------------------------------------------------------------------------

@dataclass
class AttributeValue:
    """A named attribute attached to a group or dataset."""

    name: str
    value: np.ndarray  # scalar stored as 0-d array

    @classmethod
    def from_python(cls, name: str, value: object) -> "AttributeValue":
        if isinstance(value, str):
            # Stored NUL-terminated (size = len + 1): the terminator keeps
            # empty strings representable and lets to_python recover values
            # with embedded or trailing NULs exactly.
            raw = value.encode("utf-8")
            arr = np.array(raw, dtype=f"S{len(raw) + 1}")
        elif isinstance(value, bytes):
            arr = np.array(value, dtype=f"S{len(value) + 1}")
        elif isinstance(value, bool):
            arr = np.array(int(value), dtype=np.int8)
        elif isinstance(value, int):
            arr = np.array(value, dtype=np.int64)
        elif isinstance(value, float):
            arr = np.array(value, dtype=np.float64)
        else:
            arr = np.asarray(value)
        return cls(name, arr)

    def to_python(self) -> object:
        arr = self.value
        if arr.dtype.kind == "S":
            # Drop exactly the terminator byte; .item() would strip every
            # trailing NUL, corrupting strings that legitimately end in one.
            return arr.tobytes()[:-1].decode("utf-8")
        if arr.shape == ():
            return arr.item()
        return arr


def encode_attribute(attr: AttributeValue) -> bytes:
    """Encode a version-1 attribute message."""
    name_bytes = attr.name.encode("utf-8") + b"\x00"
    datatype = encode_datatype(attr.value.dtype)
    dataspace = encode_dataspace(attr.value.shape)
    writer = BinaryWriter()
    writer.u8(1)  # version
    writer.u8(0)  # reserved
    writer.u16(len(name_bytes))
    writer.u16(len(datatype))
    writer.u16(len(dataspace))
    writer.write(name_bytes)
    writer.pad_to(8)
    base = len(writer.getvalue())
    writer.write(datatype)
    writer.zeros(pad_to(len(datatype)) - len(datatype))
    writer.write(dataspace)
    writer.zeros(pad_to(len(dataspace)) - len(dataspace))
    _ = base
    data = np.ascontiguousarray(attr.value)
    writer.write(data.tobytes())
    return writer.getvalue()


def decode_attribute(reader: BinaryReader) -> AttributeValue:
    """Parse a version-1 attribute message into an AttributeValue."""
    start = reader.offset
    version = reader.u8()
    if version != 1:
        raise ValueError(f"unsupported attribute message version: {version}")
    reader.u8()
    name_size = reader.u16()
    datatype_size = reader.u16()
    dataspace_size = reader.u16()
    name = reader.read(name_size).rstrip(b"\x00").decode("utf-8")
    reader.align(8, base=start)
    dtype = decode_datatype(BinaryReader(reader.read(pad_to(datatype_size))))
    shape = decode_dataspace(BinaryReader(reader.read(pad_to(dataspace_size))))
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    raw = reader.read(count * dtype.itemsize)
    value = np.frombuffer(raw, dtype=dtype, count=count).reshape(shape)
    if shape == ():
        value = value.reshape(())
    value = value.copy()
    # parsed trees are shared between opens of same-structured files
    value.flags.writeable = False
    return AttributeValue(name, value)


def attribute_message_size(attr: AttributeValue) -> int:
    """Encoded size of the attribute message for *attr*."""
    name_bytes = len(attr.name.encode("utf-8")) + 1
    datatype = len(encode_datatype(attr.value.dtype))
    dataspace = dataspace_message_size(attr.value.shape)
    return (
        8
        + pad_to(name_bytes)
        + pad_to(datatype)
        + pad_to(dataspace)
        + int(attr.value.nbytes)
    )


# --------------------------------------------------------------------------
# Generic message container
# --------------------------------------------------------------------------

@dataclass
class Message:
    """One object-header message: a type id plus its undecoded body."""

    type_id: int
    body: bytes = b""
    flags: int = 0

    def padded_size(self) -> int:
        return pad_to(len(self.body))


__all__ = [
    "AttributeValue",
    "ContiguousLayout",
    "LAYOUT_MESSAGE_SIZE",
    "Message",
    "SYMBOL_TABLE_MESSAGE_SIZE",
    "SymbolTableInfo",
    "attribute_message_size",
    "dataspace_message_size",
    "decode_attribute",
    "decode_dataspace",
    "decode_fill_value",
    "decode_layout",
    "decode_symbol_table",
    "encode_attribute",
    "encode_dataspace",
    "encode_fill_value",
    "encode_layout",
    "encode_symbol_table",
    "MSG_ATTRIBUTE",
    "MSG_DATA_LAYOUT",
    "MSG_DATASPACE",
    "MSG_DATATYPE",
    "MSG_FILL_VALUE",
    "MSG_NIL",
    "MSG_SYMBOL_TABLE",
    "UNDEFINED_ADDRESS",
]
