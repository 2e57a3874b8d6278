import pytest

from xorgames.games import (
    GameFormatError,
    generate_random_game,
    parse_game,
    parse_json,
    parse_text,
    serialize_json,
    serialize_text,
)

GHZ_TEXT = "1 1 1 0\n1 2 2 1\n2 1 2 1\n2 2 1 1"


def test_parse_ghz_text():
    game = parse_text(GHZ_TEXT)
    assert (game.players, game.alphabet, game.num_clauses) == (3, 2, 4)
    assert game.clauses[0].questions == (0, 0, 0)
    assert game.clauses[1].questions == (0, 1, 1)
    assert [c.parity for c in game.clauses] == [0, 1, 1, 1]


def test_parse_minimal_game():
    game = parse_text("1 1 1 0")
    assert (game.players, game.alphabet, game.num_clauses) == (3, 1, 1)


def test_declared_alphabet_wins_and_validates():
    game = parse_text("# alphabet: 5\n1 1 1 0")
    assert game.alphabet == 5
    with pytest.raises(GameFormatError):
        parse_text("# alphabet: 2\n1 1 3 0")


def test_alphabet_directive():
    game = parse_text("# alphabet: 4\n1 1 1 0")
    assert game.alphabet == 4
    with pytest.raises(GameFormatError):
        parse_text("# alphabet: x\n1 1 1 0")
    with pytest.raises(GameFormatError):
        parse_text("# alphabet: 1\n1 1 2 0")  # declaration below the max index


def test_parse_rejects_bad_input():
    with pytest.raises(GameFormatError):
        parse_text("")
    with pytest.raises(GameFormatError):
        parse_text("1 0\n")  # k = 1
    with pytest.raises(GameFormatError):
        parse_text("1 1 1 2")  # parity out of range
    with pytest.raises(GameFormatError):
        parse_text("1 1 1 0\n1 1 0")  # ragged clause
    with pytest.raises(GameFormatError):
        parse_text("1 x 1 0")


def test_comments_and_blank_lines():
    game = parse_text("# header\n\n1 1 1 0  # ghz\n  \n1 2 2 1\n")
    assert game.num_clauses == 2


def test_text_round_trip():
    game = parse_text(GHZ_TEXT)
    assert parse_text(serialize_text(game)) == game


def test_json_round_trip_and_byte_stability():
    game = parse_text(GHZ_TEXT)
    blob = serialize_json(game)
    assert parse_json(blob) == game
    assert serialize_json(parse_json(blob)) == blob
    assert serialize_text(parse_text(serialize_text(game))) == serialize_text(game)


def test_json_player_mismatch():
    with pytest.raises(GameFormatError):
        parse_json('{"players": 2, "clauses": [{"q": [1, 1, 1], "s": 0}]}')


# Wrong JSON types: a string or float question, a non-array clause list, a
# string alphabet, and a boolean parity (JSON true is not the integer 1).
BAD_JSON_TYPES = {
    "string_question": '{"clauses": [{"q": ["x", 1, 1], "s": 0}]}',
    "float_question": '{"clauses": [{"q": [1.5, 2, 1], "s": 0}]}',
    "clauses_not_array": '{"clauses": 5}',
    "string_alphabet": '{"alphabet": "3", "clauses": [{"q": [1, 1, 1], "s": 0}]}',
    "bool_parity": '{"clauses": [{"q": [1, 1, 1], "s": true}]}',
}


@pytest.mark.parametrize("case", sorted(BAD_JSON_TYPES))
def test_json_rejects_wrong_types(case):
    with pytest.raises(GameFormatError):
        parse_json(BAD_JSON_TYPES[case])


def test_parse_game_autodetect():
    game = parse_text(GHZ_TEXT)
    assert parse_game(serialize_json(game)) == game
    assert parse_game(serialize_text(game).encode()) == game


def test_generate_random_game_is_pure():
    a = generate_random_game(3, 2, 4, seed=7)
    b = generate_random_game(3, 2, 4, seed=7)
    assert a == b
    assert a.num_clauses == 4
    assert all(0 <= q < 2 for c in a.clauses for q in c.questions)


def test_generate_alphabet_one_forces_question_one():
    game = generate_random_game(3, 1, 1, seed=0)
    assert game.clauses[0].questions == (0, 0, 0)


def test_generate_validates_arguments():
    with pytest.raises(GameFormatError):
        generate_random_game(1, 2, 4, seed=0)
    with pytest.raises(GameFormatError):
        generate_random_game(3, 0, 4, seed=0)
    with pytest.raises(GameFormatError):
        generate_random_game(3, 2, 0, seed=0)


def test_random_round_trip_both_formats():
    for seed in range(20):
        game = generate_random_game(2 + seed % 3, 1 + seed % 4, 1 + seed % 6, seed)
        assert parse_text(serialize_text(game)) == game
        assert parse_json(serialize_json(game)) == game
