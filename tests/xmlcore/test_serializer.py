"""Tests for serialization: escaping, namespaces, indentation, round-trips."""

import pytest

from repro.xmlcore import (
    CData,
    Comment,
    Element,
    ProcessingInstruction,
    QName,
    XLINK_NAMESPACE,
    XmlTreeError,
    build,
    escape_attribute,
    escape_text,
    parse,
    parse_element,
    serialize,
)


class TestEscaping:
    def test_text_escapes_markup_characters(self):
        assert escape_text("a < b & c > d") == "a &lt; b &amp; c &gt; d"

    def test_attribute_escapes_quotes(self):
        assert escape_attribute('say "hi"') == "say &quot;hi&quot;"

    def test_attribute_escapes_whitespace_controls(self):
        assert escape_attribute("a\nb") == "a&#10;b"

    def test_serialized_text_reparses_to_same_value(self):
        el = Element("a")
        el.add_text("<tags> & \"quotes\" and ]]> trouble")
        reparsed = parse_element(serialize(el))
        assert reparsed.text_content() == "<tags> & \"quotes\" and ]]> trouble"


class TestBasicOutput:
    def test_empty_element_self_closes(self):
        assert serialize(Element("br")) == "<br/>"

    def test_element_with_text(self):
        assert serialize(build("t", {}, "hi")) == "<t>hi</t>"

    def test_attributes_in_insertion_order(self):
        el = Element("a", {"x": "1", "y": "2"})
        assert serialize(el) == '<a x="1" y="2"/>'

    def test_comment(self):
        el = build("a", {}, Comment("note"))
        assert serialize(el) == "<a><!--note--></a>"

    def test_comment_with_double_dash_rejected(self):
        el = build("a", {}, Comment("bad -- comment"))
        with pytest.raises(XmlTreeError):
            serialize(el)

    def test_cdata(self):
        el = build("a", {}, CData("<raw>"))
        assert serialize(el) == "<a><![CDATA[<raw>]]></a>"

    def test_cdata_containing_terminator_rejected(self):
        el = build("a", {}, CData("bad ]]> cdata"))
        with pytest.raises(XmlTreeError):
            serialize(el)

    def test_processing_instruction(self):
        el = build("a", {}, ProcessingInstruction("target", "data"))
        assert serialize(el) == "<a><?target data?></a>"

    def test_xml_declaration(self):
        doc = parse("<a/>")
        out = serialize(doc, xml_declaration=True)
        assert out.startswith('<?xml version="1.0" encoding="UTF-8"?>')


class TestNamespaceOutput:
    def test_parsed_prefix_reused(self):
        source = '<x:m xmlns:x="urn:x"><x:p/></x:m>'
        assert serialize(parse_element(source)) == source

    def test_default_namespace_reused(self):
        source = '<m xmlns="urn:x"><p/></m>'
        assert serialize(parse_element(source)) == source

    def test_synthesized_prefix_for_programmatic_namespace(self):
        el = Element(QName("urn:x", "m"))
        out = serialize(el)
        assert 'xmlns:ns0="urn:x"' in out and out.startswith("<ns0:m")

    def test_synthesized_output_reparses_to_same_name(self):
        el = Element(QName("urn:x", "m"))
        el.set(QName(XLINK_NAMESPACE, "href"), "doc.xml")
        reparsed = parse_element(serialize(el))
        assert reparsed.name == QName("urn:x", "m")
        assert reparsed.get(QName(XLINK_NAMESPACE, "href")) == "doc.xml"

    def test_attribute_never_uses_default_namespace(self):
        # An attribute in namespace urn:x must get a real prefix even when
        # urn:x is the default namespace.
        el = parse_element('<m xmlns="urn:x"/>')
        el.set(QName("urn:x", "a"), "v")
        reparsed = parse_element(serialize(el))
        assert reparsed.get(QName("urn:x", "a")) == "v"

    def test_unprefixed_no_namespace_child_inside_default_ns(self):
        outer = parse_element('<m xmlns="urn:x"/>')
        outer.append(Element("plain"))  # no namespace
        reparsed = parse_element(serialize(outer))
        assert reparsed.child_elements()[0].name == QName(None, "plain")

    def test_plain_markup_below_an_undeclared_default(self):
        source = '<m xmlns="urn:x"><inner xmlns=""><x a="1">t</x></inner></m>'
        assert serialize(parse_element(source)) == source

    def test_namespaced_child_of_plain_markup_still_declares(self):
        outer = build("m", {"a": "1"}, build("p", {}))
        outer.find("p").append(Element(QName("urn:x", "q")))
        assert serialize(outer) == '<m a="1"><p><ns0:q xmlns:ns0="urn:x"/></p></m>'

    def test_shadowing_round_trip(self):
        source = '<m xmlns:p="urn:one"><inner xmlns:p="urn:two"><p:x/></inner></m>'
        reparsed = parse_element(serialize(parse_element(source)))
        assert reparsed.find("x").name == QName("urn:two", "x")


class TestIndentation:
    def test_pretty_printing_nests(self):
        el = build("m", {}, build("p", {}, build("t", {}, "x")))
        out = serialize(el, indent="  ")
        assert out == "<m>\n  <p>\n    <t>x</t>\n  </p>\n</m>"

    def test_mixed_content_not_reindented(self):
        el = parse_element("<p>one <b>two</b> three</p>")
        assert serialize(el, indent="  ") == "<p>one <b>two</b> three</p>"

    def test_indented_output_reparses_equivalent(self):
        source = "<m><a><b>deep</b></a><c/></m>"
        el = parse_element(source)
        reparsed = parse_element(serialize(el, indent="  "))
        assert reparsed.find("b").text_content() == "deep"
        assert len(reparsed.child_elements()) == 2


class TestRoundTrips:
    @pytest.mark.parametrize(
        "source",
        [
            "<a/>",
            "<a>text</a>",
            '<a x="1"/>',
            "<a><b/><c><d/></c></a>",
            '<a xmlns="urn:d"><b/></a>',
            '<x:a xmlns:x="urn:p" x:attr="v"/>',
            "<a>&amp;&lt;&gt;</a>",
            "<a><!--c--><?pi d?></a>",
            '<links xmlns:xlink="http://www.w3.org/1999/xlink" '
            'xlink:type="extended"><loc xlink:type="locator" '
            'xlink:href="picasso.xml" xlink:label="painter"/></links>',
        ],
    )
    def test_parse_serialize_parse_is_stable(self, source):
        once = serialize(parse_element(source))
        twice = serialize(parse_element(once))
        assert once == twice
